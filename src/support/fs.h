// Injectable filesystem: the seam between durable-artifact writers and the
// disk, plus a deterministic disk-fault injector (docs/robustness.md).
//
// The checkpoint writer's atomicity story (tmp + rename, CRC-32 envelope)
// is only as good as its handling of an actually faulty filesystem: short
// writes, ENOSPC, failed renames, and fsyncs that report success for data
// that never reaches the platter. All durable writes in the harness
// (checkpoints, bench artifacts, worker result files, failure bundles) go
// through the `Fs` interface so tests and the CI chaos job can swap in
// `FaultFs` — a fault-injecting wrapper seeded exactly like
// `httpsim::FaultInjector` — and prove that restore-newest-valid survives
// every injected disk fault.
//
// Thread-ownership rule: `RealFs` is stateless and safe everywhere;
// `FaultFs` owns an RNG stream and counters and must not be shared across
// threads (the harness only writes checkpoints on the serial path).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/rng.h"

namespace mak::support::fs {

// Minimal durable-file operations. Every call reports failure by return
// value — never by exception — so callers decide whether a failed write is
// fatal (a worker result) or ignorable (a periodic checkpoint).
class Fs {
 public:
  virtual ~Fs() = default;

  // Replace `path`'s contents (created if absent). When `durable` is true
  // the data is flushed and fsync'ed before returning. False on any error;
  // the file may then hold a prefix of `contents` (short write).
  virtual bool write_file(const std::string& path, std::string_view contents,
                          bool durable) = 0;
  // Whole-file read; nullopt when missing or unreadable.
  virtual std::optional<std::string> read_file(const std::string& path) = 0;
  virtual bool rename(const std::string& from, const std::string& to) = 0;
  virtual bool remove(const std::string& path) = 0;
  virtual bool create_directories(const std::string& path) = 0;
  // Names (not paths) of regular files directly inside `dir`; empty when
  // the directory is missing.
  virtual std::vector<std::string> list_dir(const std::string& dir) = 0;
  virtual bool exists(const std::string& path) = 0;
};

// Pass-through to the real filesystem (std::filesystem + POSIX fsync).
class RealFs : public Fs {
 public:
  bool write_file(const std::string& path, std::string_view contents,
                  bool durable) override;
  std::optional<std::string> read_file(const std::string& path) override;
  bool rename(const std::string& from, const std::string& to) override;
  bool remove(const std::string& path) override;
  bool create_directories(const std::string& path) override;
  std::vector<std::string> list_dir(const std::string& dir) override;
  bool exists(const std::string& path) override;
};

// Declarative disk-fault profile. Rates are per-operation probabilities,
// drawn from the FaultFs RNG stream in call order, so a given (seed,
// profile) pair injects a reproducible fault sequence.
struct FsFaultProfile {
  double write_error_rate = 0.0;   // write fails cleanly (ENOSPC-style);
                                   // a prefix may have been written
  double torn_write_rate = 0.0;    // write stores only a prefix but REPORTS
                                   // SUCCESS (the dangerous lie)
  double rename_error_rate = 0.0;  // rename fails, source left in place
  double remove_error_rate = 0.0;  // remove fails, file survives
  double sync_lie_rate = 0.0;      // durable write skips the fsync but
                                   // reports success; the file is then torn
                                   // by simulate_power_loss()
  std::uint64_t seed = 0x5eedf5;

  bool enabled() const noexcept {
    return write_error_rate > 0.0 || torn_write_rate > 0.0 ||
           rename_error_rate > 0.0 || remove_error_rate > 0.0 ||
           sync_lie_rate > 0.0;
  }

  // Spec grammar, mirroring httpsim::FaultProfile::parse:
  //   "seed=7,write_fail=0.1,torn=0.05,rename_fail=0.1,remove_fail=0.05,
  //    sync_fail=0.1"
  // Returns nullopt on a malformed spec.
  static std::optional<FsFaultProfile> parse(std::string_view spec);
  // Profile from the MAK_FAULTFS environment variable; nullopt when unset,
  // empty, or unparsable.
  static std::optional<FsFaultProfile> from_env();
  // Canonical spec string (round-trips through parse()).
  std::string describe() const;
};

// Fault-injecting wrapper over another Fs. Reads and metadata pass through
// untouched; writes, renames and removes may fail or lie per the profile.
class FaultFs : public Fs {
 public:
  FaultFs(Fs& base, FsFaultProfile profile);

  bool write_file(const std::string& path, std::string_view contents,
                  bool durable) override;
  std::optional<std::string> read_file(const std::string& path) override;
  bool rename(const std::string& from, const std::string& to) override;
  bool remove(const std::string& path) override;
  bool create_directories(const std::string& path) override;
  std::vector<std::string> list_dir(const std::string& dir) override;
  bool exists(const std::string& path) override;

  // Tear every file whose last durable write got a lying fsync (truncate to
  // half the written length), as a power loss would. Clears the tracked set;
  // renames follow the data, so the torn file is the renamed target.
  void simulate_power_loss();

  struct Counters {
    std::size_t writes = 0;
    std::size_t injected_write_errors = 0;
    std::size_t torn_writes = 0;
    std::size_t injected_rename_errors = 0;
    std::size_t injected_remove_errors = 0;
    std::size_t sync_lies = 0;
    std::size_t total() const noexcept {
      return injected_write_errors + torn_writes + injected_rename_errors +
             injected_remove_errors + sync_lies;
    }
  };
  const Counters& counters() const noexcept { return counters_; }
  const FsFaultProfile& profile() const noexcept { return profile_; }

 private:
  Fs& base_;
  FsFaultProfile profile_;
  Rng rng_;
  Counters counters_;
  // path -> written length for durable writes whose fsync lied.
  std::vector<std::pair<std::string, std::size_t>> unsynced_;
};

// Process-wide default used by writers that don't take an explicit Fs&
// (CheckpointManager, bench artifacts, the orchestrator). Resolution order:
// the instance installed by set_default_fs, else a process-lifetime FaultFs
// configured from MAK_FAULTFS, else a RealFs singleton.
Fs& default_fs();
// Test hook: override (nullptr restores the environment-driven default).
void set_default_fs(Fs* fs);

// Atomic whole-file replace through `fs`: write `path + ".tmp"`, read it
// back to defeat torn-writes-that-report-success, then rename over `path`;
// each stage retried up to `attempts` times. The workhorse behind artifacts
// that must never land torn (worker results, bench JSON, bundle manifests).
bool write_file_atomic_verified(Fs& fs, const std::string& path,
                                std::string_view contents, int attempts = 8);

// A fresh directory under the system temp dir (TMPDIR), made by mkdtemp as
// <prefix>-XXXXXX and removed with its contents on destruction, so
// concurrent processes never share scratch files. Throws
// std::runtime_error when no directory can be made.
class TempDir {
 public:
  explicit TempDir(std::string_view prefix);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

}  // namespace mak::support::fs
