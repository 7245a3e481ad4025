#include "support/fs.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "support/log.h"
#include "support/metric_names.h"
#include "support/metrics.h"
#include "support/strings.h"

namespace mak::support::fs {

namespace stdfs = std::filesystem;

// ------------------------------------------------------------------ RealFs

bool RealFs::write_file(const std::string& path, std::string_view contents,
                        bool durable) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) return false;
  }
  if (durable) {
    const int fd = ::open(path.c_str(), O_WRONLY);
    if (fd < 0) return false;
    const bool synced = ::fsync(fd) == 0;
    ::close(fd);
    return synced;
  }
  return true;
}

std::optional<std::string> RealFs::read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return buffer.str();
}

bool RealFs::rename(const std::string& from, const std::string& to) {
  std::error_code ec;
  stdfs::rename(from, to, ec);
  return !ec;
}

bool RealFs::remove(const std::string& path) {
  std::error_code ec;
  return stdfs::remove(path, ec) && !ec;
}

bool RealFs::create_directories(const std::string& path) {
  std::error_code ec;
  stdfs::create_directories(path, ec);
  return !ec && stdfs::is_directory(path, ec);
}

std::vector<std::string> RealFs::list_dir(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : stdfs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      names.push_back(entry.path().filename().string());
    }
  }
  return names;
}

bool RealFs::exists(const std::string& path) {
  std::error_code ec;
  return stdfs::exists(path, ec);
}

// ----------------------------------------------------------- FsFaultProfile

namespace {

bool parse_rate(const std::string& text, double& out) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') return false;
  if (!(value >= 0.0 && value <= 1.0)) return false;
  out = value;
  return true;
}

}  // namespace

std::optional<FsFaultProfile> FsFaultProfile::parse(std::string_view spec) {
  FsFaultProfile profile;
  for (std::string_view token : support::split(spec, ',')) {
    const std::string item(support::trim(token));
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(value.c_str(), &end, 0);
      if (end == value.c_str() || *end != '\0') return std::nullopt;
      profile.seed = parsed;
    } else if (key == "write_fail") {
      if (!parse_rate(value, profile.write_error_rate)) return std::nullopt;
    } else if (key == "torn") {
      if (!parse_rate(value, profile.torn_write_rate)) return std::nullopt;
    } else if (key == "rename_fail") {
      if (!parse_rate(value, profile.rename_error_rate)) return std::nullopt;
    } else if (key == "remove_fail") {
      if (!parse_rate(value, profile.remove_error_rate)) return std::nullopt;
    } else if (key == "sync_fail") {
      if (!parse_rate(value, profile.sync_lie_rate)) return std::nullopt;
    } else {
      return std::nullopt;
    }
  }
  return profile;
}

std::optional<FsFaultProfile> FsFaultProfile::from_env() {
  const char* spec = std::getenv("MAK_FAULTFS");
  if (spec == nullptr || *spec == '\0') return std::nullopt;
  return parse(spec);
}

std::string FsFaultProfile::describe() const {
  std::ostringstream out;
  out << "seed=0x" << std::hex << seed << std::dec;
  const auto rate = [&out](const char* key, double value) {
    if (value > 0.0) out << ',' << key << '=' << value;
  };
  rate("write_fail", write_error_rate);
  rate("torn", torn_write_rate);
  rate("rename_fail", rename_error_rate);
  rate("remove_fail", remove_error_rate);
  rate("sync_fail", sync_lie_rate);
  return out.str();
}

// ----------------------------------------------------------------- FaultFs

FaultFs::FaultFs(Fs& base, FsFaultProfile profile)
    : base_(base), profile_(profile), rng_(profile.seed) {}

namespace {

Counter& injected_faults_counter() {
  static Counter& counter =
      MetricsRegistry::global().counter(metric::kFsInjectedFaults);
  return counter;
}

}  // namespace

bool FaultFs::write_file(const std::string& path, std::string_view contents,
                         bool durable) {
  ++counters_.writes;
  // Fixed draw order (error, torn, sync) keeps the fault sequence a pure
  // function of (seed, call sequence) regardless of which rates are zero.
  const bool inject_error = rng_.chance(profile_.write_error_rate);
  const bool inject_torn = rng_.chance(profile_.torn_write_rate);
  const bool inject_sync_lie =
      durable && rng_.chance(profile_.sync_lie_rate);
  if (inject_error) {
    ++counters_.injected_write_errors;
    injected_faults_counter().add();
    // ENOSPC-style: a prefix may land before the failure is reported.
    const std::size_t prefix = contents.size() / 3;
    base_.write_file(path, contents.substr(0, prefix), false);
    return false;
  }
  if (inject_torn) {
    ++counters_.torn_writes;
    injected_faults_counter().add();
    // The lie: only a prefix is stored, yet the call reports success.
    const std::size_t prefix =
        contents.empty() ? 0 : contents.size() / 2 + 1;
    base_.write_file(path, contents.substr(0, prefix), durable);
    return true;
  }
  if (inject_sync_lie) {
    ++counters_.sync_lies;
    injected_faults_counter().add();
    if (!base_.write_file(path, contents, false)) return false;
    unsynced_.emplace_back(path, contents.size());
    return true;  // fsync "succeeded"; simulate_power_loss tears it later
  }
  return base_.write_file(path, contents, durable);
}

std::optional<std::string> FaultFs::read_file(const std::string& path) {
  return base_.read_file(path);
}

bool FaultFs::rename(const std::string& from, const std::string& to) {
  if (rng_.chance(profile_.rename_error_rate)) {
    ++counters_.injected_rename_errors;
    injected_faults_counter().add();
    return false;
  }
  if (!base_.rename(from, to)) return false;
  for (auto& [path, length] : unsynced_) {
    if (path == from) path = to;
  }
  return true;
}

bool FaultFs::remove(const std::string& path) {
  if (rng_.chance(profile_.remove_error_rate)) {
    ++counters_.injected_remove_errors;
    injected_faults_counter().add();
    return false;
  }
  return base_.remove(path);
}

bool FaultFs::create_directories(const std::string& path) {
  return base_.create_directories(path);
}

std::vector<std::string> FaultFs::list_dir(const std::string& dir) {
  return base_.list_dir(dir);
}

bool FaultFs::exists(const std::string& path) { return base_.exists(path); }

void FaultFs::simulate_power_loss() {
  for (const auto& [path, length] : unsynced_) {
    const auto contents = base_.read_file(path);
    if (!contents.has_value()) continue;
    base_.write_file(path, std::string_view(*contents).substr(0, length / 2),
                     false);
  }
  unsynced_.clear();
}

// ---------------------------------------------------------------- defaults

namespace {

Fs* g_override_fs = nullptr;

Fs& env_default_fs() {
  static RealFs real;
  // MAK_FAULTFS installs a process-lifetime fault layer (the CI chaos job's
  // entry point); parse failures warn once and fall back to the real disk.
  static Fs* chosen = [] {
    if (const auto profile = FsFaultProfile::from_env();
        profile.has_value() && profile->enabled()) {
      static FaultFs faulty(real, *profile);
      MAK_LOG_WARN << "fs: disk-fault injection enabled ("
                   << profile->describe() << ")";
      return static_cast<Fs*>(&faulty);
    }
    if (const char* spec = std::getenv("MAK_FAULTFS");
        spec != nullptr && *spec != '\0' &&
        !FsFaultProfile::parse(spec).has_value()) {
      MAK_LOG_WARN << "fs: ignoring unparsable MAK_FAULTFS: " << spec;
    }
    return static_cast<Fs*>(&real);
  }();
  return *chosen;
}

}  // namespace

Fs& default_fs() {
  return g_override_fs != nullptr ? *g_override_fs : env_default_fs();
}

void set_default_fs(Fs* fs) { g_override_fs = fs; }

// -------------------------------------------------- verified atomic write

bool write_file_atomic_verified(Fs& fs, const std::string& path,
                                std::string_view contents, int attempts) {
  static Counter& writes = MetricsRegistry::global().counter(metric::kFsWrites);
  const std::string tmp = path + ".tmp";
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (!fs.write_file(tmp, contents, /*durable=*/true)) continue;
    // Read-back defeats torn writes that reported success.
    const auto stored = fs.read_file(tmp);
    if (!stored.has_value() || *stored != contents) continue;
    if (!fs.rename(tmp, path)) continue;
    writes.add();
    return true;
  }
  fs.remove(tmp);  // best effort
  MAK_LOG_WARN << "fs: atomic write of " << path << " failed after "
               << attempts << " attempts";
  return false;
}

TempDir::TempDir(std::string_view prefix) {
  std::error_code error;
  const auto base = std::filesystem::temp_directory_path(error);
  if (error) {
    throw std::runtime_error("no temp dir: " + error.message());
  }
  path_ = (base / (std::string(prefix) + "-XXXXXX")).string();
  if (::mkdtemp(path_.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed under " + base.string());
  }
}

TempDir::~TempDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

}  // namespace mak::support::fs
