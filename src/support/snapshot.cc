#include "support/snapshot.h"

#include <cmath>
#include <cstdio>

namespace mak::support::snapshot {

namespace {

[[noreturn]] void bad(std::string_view key, std::string_view what) {
  throw SnapshotError("snapshot: field '" + std::string(key) + "' " +
                      std::string(what));
}

}  // namespace

const json::Value& require(const json::Value& object, std::string_view key) {
  const json::Value* value = object.find(key);
  if (value == nullptr) bad(key, "missing");
  return *value;
}

double require_number(const json::Value& object, std::string_view key) {
  const json::Value& value = require(object, key);
  if (!value.is_number()) bad(key, "is not a number");
  const double number = value.as_number();
  if (!std::isfinite(number)) bad(key, "is not finite");
  return number;
}

bool require_bool(const json::Value& object, std::string_view key) {
  const json::Value& value = require(object, key);
  if (!value.is_bool()) bad(key, "is not a bool");
  return value.as_bool();
}

const std::string& require_string(const json::Value& object,
                                  std::string_view key) {
  const json::Value& value = require(object, key);
  if (!value.is_string()) bad(key, "is not a string");
  return value.as_string();
}

const json::Array& require_array(const json::Value& object,
                                 std::string_view key) {
  const json::Value& value = require(object, key);
  if (!value.is_array()) bad(key, "is not an array");
  return value.as_array();
}

std::uint64_t require_index(const json::Value& object, std::string_view key) {
  const double number = require_number(object, key);
  if (number < 0.0 || number != std::floor(number) || number >= 0x1p53) {
    bad(key, "is not a non-negative integer");
  }
  return static_cast<std::uint64_t>(number);
}

std::int64_t require_int(const json::Value& object, std::string_view key) {
  const double number = require_number(object, key);
  if (number != std::floor(number) || std::fabs(number) >= 0x1p53) {
    bad(key, "is not an integer");
  }
  return static_cast<std::int64_t>(number);
}

void check_header(const json::Value& state, std::string_view id,
                  int version) {
  if (!state.is_object()) {
    throw SnapshotError("snapshot: state for '" + std::string(id) +
                        "' is not an object");
  }
  const std::string& got_id = require_string(state, "id");
  if (got_id != id) {
    throw SnapshotError("snapshot: component mismatch (expected '" +
                        std::string(id) + "', found '" + got_id + "')");
  }
  const std::int64_t got_version = require_int(state, "v");
  if (got_version != version) {
    throw SnapshotError("snapshot: '" + std::string(id) +
                        "' schema_version mismatch (expected " +
                        std::to_string(version) + ", found " +
                        std::to_string(got_version) + ")");
  }
}

json::Object make_state(std::string_view id, int version) {
  json::Object object;
  object.emplace("id", json::Value(std::string(id)));
  object.emplace("v", json::Value(static_cast<double>(version)));
  return object;
}

std::string u64_to_hex(std::uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::uint64_t hex_to_u64(std::string_view hex) {
  if (hex.empty() || hex.size() > 16) {
    throw SnapshotError("snapshot: bad u64 hex literal");
  }
  std::uint64_t value = 0;
  for (const char c : hex) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      throw SnapshotError("snapshot: bad u64 hex literal");
    }
  }
  return value;
}

std::uint64_t require_u64_hex(const json::Value& object,
                              std::string_view key) {
  return hex_to_u64(require_string(object, key));
}

json::Value doubles_to_json(const std::vector<double>& values) {
  json::Array array;
  array.reserve(values.size());
  for (const double v : values) array.emplace_back(v);
  return json::Value(std::move(array));
}

std::vector<double> doubles_from_json(const json::Value& array,
                                      std::string_view what) {
  if (!array.is_array()) bad(what, "is not an array");
  std::vector<double> values;
  values.reserve(array.as_array().size());
  for (const json::Value& item : array.as_array()) {
    if (!item.is_number() || !std::isfinite(item.as_number())) {
      bad(what, "has a non-finite element");
    }
    values.push_back(item.as_number());
  }
  return values;
}

json::Value indices_to_json(const std::vector<std::size_t>& values) {
  json::Array array;
  array.reserve(values.size());
  for (const std::size_t v : values) {
    array.emplace_back(static_cast<double>(v));
  }
  return json::Value(std::move(array));
}

std::vector<std::size_t> indices_from_json(const json::Value& array,
                                           std::string_view what) {
  if (!array.is_array()) bad(what, "is not an array");
  std::vector<std::size_t> values;
  values.reserve(array.as_array().size());
  for (const json::Value& item : array.as_array()) {
    if (!item.is_number()) bad(what, "has a non-integer element");
    const double number = item.as_number();
    if (!(number >= 0.0) || number != std::floor(number) || number >= 0x1p53) {
      bad(what, "has a non-integer element");
    }
    values.push_back(static_cast<std::size_t>(number));
  }
  return values;
}

json::Value rng_to_json(const Rng& rng) {
  json::Array words;
  for (const std::uint64_t word : rng.state()) {
    words.emplace_back(u64_to_hex(word));
  }
  return json::Value(std::move(words));
}

void rng_from_json(Rng& rng, const json::Value& state) {
  if (!state.is_array() || state.as_array().size() != 4) {
    throw SnapshotError("snapshot: rng state must be 4 hex words");
  }
  Rng::State words{};
  for (std::size_t i = 0; i < words.size(); ++i) {
    const json::Value& word = state.as_array()[i];
    if (!word.is_string()) {
      throw SnapshotError("snapshot: rng state must be 4 hex words");
    }
    words[i] = hex_to_u64(word.as_string());
  }
  if (words == Rng::State{}) {
    throw SnapshotError("snapshot: rng state is all-zero");
  }
  rng.restore(words);
}

json::Value stats_to_json(const RunningStats& stats) {
  json::Object object;
  object.emplace("count", static_cast<double>(stats.count()));
  object.emplace("mean", stats.mean());
  object.emplace("m2", stats.m2());
  object.emplace("min", stats.min());
  object.emplace("max", stats.max());
  object.emplace("total", stats.total());
  return json::Value(std::move(object));
}

void stats_from_json(RunningStats& stats, const json::Value& state) {
  stats.restore(static_cast<std::size_t>(require_index(state, "count")),
                require_number(state, "mean"), require_number(state, "m2"),
                require_number(state, "min"), require_number(state, "max"),
                require_number(state, "total"));
}

namespace {

// Reflected CRC-32 table (polynomial 0xEDB88320), built once.
struct Crc32Table {
  std::array<std::uint32_t, 256> entries{};
  Crc32Table() noexcept {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      entries[i] = crc;
    }
  }
};

}  // namespace

std::uint32_t crc32(std::string_view data) noexcept {
  static const Crc32Table table;
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char c : data) {
    crc = (crc >> 8) ^
          table.entries[(crc ^ static_cast<unsigned char>(c)) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string crc_hex(std::uint32_t crc) {
  char buffer[9];
  std::snprintf(buffer, sizeof(buffer), "%08x", crc);
  return buffer;
}

std::string seal(std::string_view magic, int format, json::Object binding,
                 std::string payload) {
  binding.emplace("magic", std::string(magic));
  binding.emplace("format", static_cast<double>(format));
  binding.emplace("crc32", crc_hex(crc32(payload)));
  binding.emplace("payload", std::move(payload));
  return json::dump(json::Value(std::move(binding))) + "\n";
}

json::Value unseal(std::string_view text, std::string_view magic, int format,
                   std::string_view what) {
  const auto fail = [what](std::string_view problem) {
    return SnapshotError(std::string(what) + ": " + std::string(problem));
  };
  auto envelope = json::parse(text);
  if (!envelope.has_value() || !envelope->is_object()) {
    throw fail("not a JSON object");
  }
  if (require_string(*envelope, "magic") != magic) throw fail("bad magic");
  if (require_int(*envelope, "format") != format) {
    throw fail("unsupported format");
  }
  if (require_string(*envelope, "crc32") !=
      crc_hex(crc32(require_string(*envelope, "payload")))) {
    throw fail("CRC mismatch");
  }
  return std::move(*envelope);
}

}  // namespace mak::support::snapshot
