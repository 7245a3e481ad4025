// Crash-resilient experiment checkpoints (docs/robustness.md).
//
// A checkpoint file is one CRC envelope (support::snapshot::seal):
//
//   {"magic": "mak-ckpt", "format": 1, "digest": "<8-hex config digest>",
//    "seq": N, "crc32": "<8-hex>", "payload": "<JSON string>"}
//
// The payload — the experiment state proper — travels as an embedded JSON
// string so the CRC-32 covers its exact bytes; any bit flip or truncation is
// detected before a single field is interpreted. Files are written atomically
// (temp file + rename in the same directory), so a crash mid-write leaves at
// most a stray .tmp file, never a half-written checkpoint. The digest binds
// the file to one experiment configuration (app, crawler, seed, protocol,
// fault profile); resume never mixes incompatible state.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "support/json.h"

namespace mak::harness {

// Exact JSON codec for RunResult. Unlike json_report.cc's report schema this
// round-trips every field — including the covered LineSet — so completed
// repetitions survive a restart byte-for-byte. Exposed for tests and the
// checkpoint inspector.
support::json::Value result_to_state(const RunResult& result);
RunResult result_from_state(const support::json::Value& state);

// 8-hex digest of one experiment's identity: app name/version, crawler,
// seed, budget, sampling, think time, fill strategy, fault profile and
// repetition count.
std::string run_digest(const apps::AppInfo& app_info, CrawlerKind kind,
                       const RunConfig& config, std::size_t repetitions);

// Decoded checkpoint payload.
struct ExperimentCheckpoint {
  std::size_t repetitions = 0;       // total planned repetitions
  std::vector<RunResult> completed;  // results of finished repetitions
  bool complete = false;             // the whole experiment is done
  // Mid-run component state for repetition `in_flight_rep` (absent on
  // repetition-boundary checkpoints). The harness interprets the value; the
  // manager only transports it.
  std::optional<std::size_t> in_flight_rep;
  std::optional<support::json::Value> run;
};

// Parse and validate one checkpoint file: magic, format, digest (when
// `expected_digest` is non-empty), CRC and payload schema. Throws
// support::SnapshotError on ANY problem — missing file, syntax error, CRC
// mismatch, wrong digest — so callers get one clean failure channel. Used by
// CheckpointManager::restore and tools/checkpoint_inspect.
ExperimentCheckpoint read_checkpoint_file(const std::string& path,
                                          const std::string& expected_digest);

// Best-effort digest recovery from a possibly-corrupt checkpoint file, for
// triage (tools/checkpoint_inspect, failure bundles): the JSON envelope
// field when parsable, else a raw byte scan of the (possibly truncated)
// contents, else the ckpt-<digest>-<seq>.json filename. nullopt only when
// all three fail. Never throws.
std::optional<std::string> peek_checkpoint_digest(const std::string& path);

// Owns the checkpoint directory for one experiment: sequence numbering,
// atomic writes, pruning, and fallback restore across corrupted files.
class CheckpointManager {
 public:
  CheckpointManager(CheckpointConfig config, std::string digest);

  const CheckpointConfig& config() const noexcept { return config_; }
  const std::string& digest() const noexcept { return digest_; }

  // Newest valid checkpoint for this digest, falling back to the next-older
  // file when the newest is corrupted or truncated (each rejected file bumps
  // checkpoint.invalid_files and logs a warning). nullopt when none exists.
  std::optional<ExperimentCheckpoint> restore();

  // Serialize, CRC, write atomically, prune to config().keep files.
  void write(const ExperimentCheckpoint& checkpoint);

 private:
  std::string file_path(std::uint64_t seq) const;

  CheckpointConfig config_;
  std::string digest_;
  std::uint64_t next_seq_ = 1;  // always past every existing file's seq
};

}  // namespace mak::harness
