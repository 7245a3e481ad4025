// Checkpointable state: the interface and codec helpers behind crash
// recovery (docs/robustness.md).
//
// Every component that owns mutable crawl state — RNG streams, bandit
// weights, the frontier, cookies, sessions, coverage bits — can serialize
// itself to a support::json::Value and restore from one. The contract is
// exact: saving a component and loading the result into a freshly
// constructed instance of the same configuration must reproduce the
// original behaviour bit-for-bit (doubles round-trip through
// json::format_double, 64-bit integers travel as hex strings because JSON
// numbers are doubles).
//
// Malformed or mismatched state always raises SnapshotError — never UB —
// so a corrupted checkpoint degrades into a clean "this file is invalid"
// signal for harness::CheckpointManager to act on.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.h"
#include "support/rng.h"
#include "support/stats.h"

namespace mak::support {

// Raised on any malformed, truncated or incompatible snapshot payload.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// A component whose full mutable state can be captured and restored.
class Snapshotable {
 public:
  virtual ~Snapshotable() = default;

  // Stable component identifier, embedded in the state ("id" key).
  virtual std::string_view snapshot_id() const noexcept = 0;
  // Per-component schema version ("v" key). Bump on layout changes.
  virtual int snapshot_version() const noexcept = 0;

  // Serialize all mutable state. The result always carries "id" and "v".
  virtual json::Value save_state() const = 0;
  // Restore from a value produced by save_state() on a component of the
  // same id, version and configuration. Throws SnapshotError otherwise.
  virtual void load_state(const json::Value& state) = 0;
};

namespace snapshot {

// --- typed field access (all throw SnapshotError on mismatch) -----------

const json::Value& require(const json::Value& object, std::string_view key);
double require_number(const json::Value& object, std::string_view key);
bool require_bool(const json::Value& object, std::string_view key);
const std::string& require_string(const json::Value& object,
                                  std::string_view key);
const json::Array& require_array(const json::Value& object,
                                 std::string_view key);

// Non-negative integer that fits a double exactly (< 2^53).
std::uint64_t require_index(const json::Value& object, std::string_view key);
std::int64_t require_int(const json::Value& object, std::string_view key);

// Verify the standard {"id": ..., "v": ...} header written by make_state.
void check_header(const json::Value& state, std::string_view id, int version);
// Fresh object pre-populated with the standard header.
json::Object make_state(std::string_view id, int version);

// --- 64-bit integers (JSON numbers are doubles; use hex strings) --------

std::string u64_to_hex(std::uint64_t value);
std::uint64_t hex_to_u64(std::string_view hex);  // throws SnapshotError
std::uint64_t require_u64_hex(const json::Value& object, std::string_view key);

// --- homogeneous array codecs -------------------------------------------

// Finite doubles; `what` names the field in SnapshotError messages.
json::Value doubles_to_json(const std::vector<double>& values);
std::vector<double> doubles_from_json(const json::Value& array,
                                      std::string_view what);

// Non-negative integers < 2^53.
json::Value indices_to_json(const std::vector<std::size_t>& values);
std::vector<std::size_t> indices_from_json(const json::Value& array,
                                           std::string_view what);

// --- common component codecs --------------------------------------------

// xoshiro256** stream: the 4x u64 words as hex strings.
json::Value rng_to_json(const Rng& rng);
void rng_from_json(Rng& rng, const json::Value& state);

// Welford accumulator (count, mean, m2, min, max, total).
json::Value stats_to_json(const RunningStats& stats);
void stats_from_json(RunningStats& stats, const json::Value& state);

// --- integrity -----------------------------------------------------------

// CRC-32 (IEEE 802.3, reflected) of a byte string. Guards checkpoint
// payloads against bit rot and partial writes.
std::uint32_t crc32(std::string_view data) noexcept;
// The CRC as 8 lowercase hex digits.
std::string crc_hex(std::uint32_t crc);

// --- CRC envelope --------------------------------------------------------
//
// Every blob written to disk or handed across a process boundary
// (checkpoint files, worker result files) is one JSON object:
//
//   {"magic": M, "format": F, "crc32": "<8-hex>", "payload": "<JSON string>",
//    <binding fields>}
//
// The payload travels as an embedded string so the CRC covers its exact
// bytes. The binding fields (a config digest, a sequence or repetition
// number, a session id) tie the file to its producer; the caller that
// unseals it checks them.

// Envelope text, newline-terminated. `binding` must not use the four keys
// above.
std::string seal(std::string_view magic, int format, json::Object binding,
                 std::string payload);
// Parses `text` and verifies magic, format and CRC; returns the envelope,
// whose "payload" string and binding fields the caller reads. Throws
// SnapshotError naming `what` and the failed check.
json::Value unseal(std::string_view text, std::string_view magic, int format,
                   std::string_view what);

}  // namespace snapshot

}  // namespace mak::support
