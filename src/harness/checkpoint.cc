#include "harness/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "support/fs.h"
#include "support/log.h"
#include "support/metric_names.h"
#include "support/metrics.h"
#include "support/snapshot.h"

namespace mak::harness {

namespace sfs = mak::support::fs;
namespace snapshot = mak::support::snapshot;
using support::SnapshotError;
using support::json::Value;

namespace {

constexpr std::string_view kMagic = "mak-ckpt";
constexpr int kFormat = 1;
constexpr std::string_view kPayloadId = "harness.checkpoint";
constexpr int kPayloadVersion = 1;

apps::Platform platform_from_int(std::int64_t value) {
  switch (value) {
    case 0:
      return apps::Platform::kPhp;
    case 1:
      return apps::Platform::kNode;
    default:
      throw SnapshotError("RunResult: unknown platform in checkpoint");
  }
}

}  // namespace

support::json::Value result_to_state(const RunResult& result) {
  auto state = snapshot::make_state("harness.run_result", 1);
  state.emplace("app", result.app);
  state.emplace("crawler", result.crawler);
  state.emplace("platform", static_cast<double>(result.platform));
  support::json::Array series;
  series.reserve(result.series.points().size());
  for (const auto& point : result.series.points()) {
    support::json::Array pair;
    pair.emplace_back(static_cast<double>(point.time));
    pair.emplace_back(static_cast<double>(point.covered_lines));
    series.emplace_back(std::move(pair));
  }
  state.emplace("series", Value(std::move(series)));
  state.emplace("final_covered_lines",
                static_cast<double>(result.final_covered_lines));
  state.emplace("total_lines", static_cast<double>(result.total_lines));
  state.emplace("interactions", static_cast<double>(result.interactions));
  state.emplace("navigations", static_cast<double>(result.navigations));
  state.emplace("links_discovered",
                static_cast<double>(result.links_discovered));
  state.emplace("covered", result.covered.save_state());
  state.emplace("fault_active", Value(result.fault_active));
  state.emplace("retries", static_cast<double>(result.retries));
  state.emplace("transport_failures",
                static_cast<double>(result.transport_failures));
  state.emplace("timeouts", static_cast<double>(result.timeouts));
  state.emplace("backoff_ms", static_cast<double>(result.backoff_ms));
  state.emplace("injected_errors", static_cast<double>(result.injected_errors));
  state.emplace("injected_drops", static_cast<double>(result.injected_drops));
  state.emplace("latency_spikes", static_cast<double>(result.latency_spikes));
  state.emplace("degraded_requests",
                static_cast<double>(result.degraded_requests));
  // Drift and regret blocks are optional for the same reason as the failure
  // annotations below: results from drift-free, non-bandit runs keep their
  // exact pre-existing byte encoding.
  if (result.drift_active) {
    state.emplace("drift_active", Value(true));
    state.emplace("drift_gone_requests",
                  static_cast<double>(result.drift_gone_requests));
    state.emplace("drift_rewritten_links",
                  static_cast<double>(result.drift_rewritten_links));
    state.emplace("drift_churned_links",
                  static_cast<double>(result.drift_churned_links));
    state.emplace("drift_expired_sessions",
                  static_cast<double>(result.drift_expired_sessions));
    state.emplace("drift_storm_requests",
                  static_cast<double>(result.drift_storm_requests));
  }
  if (result.regret_tracked) {
    state.emplace("regret_tracked", Value(true));
    state.emplace("realized_gain", result.realized_gain);
    state.emplace("best_arm_gain", result.best_arm_gain);
    state.emplace("weak_regret", result.weak_regret);
    state.emplace("cumulative_regret", result.cumulative_regret);
    state.emplace("policy_updates", static_cast<double>(result.policy_updates));
  }
  state.emplace("steps", static_cast<double>(result.steps));
  state.emplace("aborted", Value(result.aborted));
  state.emplace("abort_reason", result.abort_reason);
  // Failure annotations are optional so non-failed results keep their exact
  // pre-orchestrator byte encoding (byte-identity tests depend on it).
  if (result.failed) {
    state.emplace("failed", Value(true));
    state.emplace("failure_class", result.failure_class);
    state.emplace("attempts", static_cast<double>(result.attempts));
  }
  return Value(std::move(state));
}

RunResult result_from_state(const support::json::Value& state) {
  snapshot::check_header(state, "harness.run_result", 1);
  RunResult result;
  result.app = snapshot::require_string(state, "app");
  result.crawler = snapshot::require_string(state, "crawler");
  result.platform = platform_from_int(snapshot::require_int(state, "platform"));
  for (const auto& entry : snapshot::require_array(state, "series")) {
    if (!entry.is_array() || entry.as_array().size() != 2 ||
        !entry.as_array()[0].is_number() || !entry.as_array()[1].is_number()) {
      throw SnapshotError("RunResult: malformed series point");
    }
    const double time = entry.as_array()[0].as_number();
    const double covered = entry.as_array()[1].as_number();
    if (time < 0 || time != static_cast<double>(static_cast<std::int64_t>(time)) ||
        covered < 0 ||
        covered != static_cast<double>(static_cast<std::uint64_t>(covered))) {
      throw SnapshotError("RunResult: non-integer series point");
    }
    result.series.record(static_cast<support::VirtualMillis>(time),
                         static_cast<std::size_t>(covered));
  }
  result.final_covered_lines = static_cast<std::size_t>(
      snapshot::require_index(state, "final_covered_lines"));
  result.total_lines =
      static_cast<std::size_t>(snapshot::require_index(state, "total_lines"));
  result.interactions =
      static_cast<std::size_t>(snapshot::require_index(state, "interactions"));
  result.navigations =
      static_cast<std::size_t>(snapshot::require_index(state, "navigations"));
  result.links_discovered = static_cast<std::size_t>(
      snapshot::require_index(state, "links_discovered"));
  result.covered.load_state(snapshot::require(state, "covered"));
  result.fault_active = snapshot::require_bool(state, "fault_active");
  result.retries =
      static_cast<std::size_t>(snapshot::require_index(state, "retries"));
  result.transport_failures = static_cast<std::size_t>(
      snapshot::require_index(state, "transport_failures"));
  result.timeouts =
      static_cast<std::size_t>(snapshot::require_index(state, "timeouts"));
  result.backoff_ms = static_cast<support::VirtualMillis>(
      snapshot::require_index(state, "backoff_ms"));
  result.injected_errors = static_cast<std::size_t>(
      snapshot::require_index(state, "injected_errors"));
  result.injected_drops = static_cast<std::size_t>(
      snapshot::require_index(state, "injected_drops"));
  result.latency_spikes = static_cast<std::size_t>(
      snapshot::require_index(state, "latency_spikes"));
  result.degraded_requests = static_cast<std::size_t>(
      snapshot::require_index(state, "degraded_requests"));
  if (state.find("drift_active") != nullptr) {
    result.drift_active = snapshot::require_bool(state, "drift_active");
    result.drift_gone_requests = static_cast<std::size_t>(
        snapshot::require_index(state, "drift_gone_requests"));
    result.drift_rewritten_links = static_cast<std::size_t>(
        snapshot::require_index(state, "drift_rewritten_links"));
    result.drift_churned_links = static_cast<std::size_t>(
        snapshot::require_index(state, "drift_churned_links"));
    result.drift_expired_sessions = static_cast<std::size_t>(
        snapshot::require_index(state, "drift_expired_sessions"));
    result.drift_storm_requests = static_cast<std::size_t>(
        snapshot::require_index(state, "drift_storm_requests"));
  }
  if (state.find("regret_tracked") != nullptr) {
    result.regret_tracked = snapshot::require_bool(state, "regret_tracked");
    result.realized_gain = snapshot::require_number(state, "realized_gain");
    result.best_arm_gain = snapshot::require_number(state, "best_arm_gain");
    result.weak_regret = snapshot::require_number(state, "weak_regret");
    result.cumulative_regret =
        snapshot::require_number(state, "cumulative_regret");
    result.policy_updates = static_cast<std::size_t>(
        snapshot::require_index(state, "policy_updates"));
  }
  result.steps =
      static_cast<std::size_t>(snapshot::require_index(state, "steps"));
  result.aborted = snapshot::require_bool(state, "aborted");
  result.abort_reason = snapshot::require_string(state, "abort_reason");
  if (state.find("failed") != nullptr) {
    result.failed = snapshot::require_bool(state, "failed");
    result.failure_class = snapshot::require_string(state, "failure_class");
    result.attempts =
        static_cast<std::size_t>(snapshot::require_index(state, "attempts"));
  }
  return result;
}

std::string run_digest(const apps::AppInfo& app_info, CrawlerKind kind,
                       const RunConfig& config, std::size_t repetitions) {
  // Everything that determines the run's trajectory goes in; CLI/env paths
  // and supervisor budgets stay out (resuming with a different wall limit is
  // legitimate). Collisions are caught later by the per-component config
  // checks in load_state (app name, fault spec, policy parameters).
  std::ostringstream identity;
  identity << app_info.name << '\n'
           << app_info.version << '\n'
           << to_string(kind) << '\n'
           << snapshot::u64_to_hex(config.seed) << '\n'
           << config.budget << '\n'
           << config.sample_interval << '\n'
           << config.think_time << '\n'
           << static_cast<int>(config.fill_strategy) << '\n'
           << config.fault.describe() << '\n'
           << config.drift.describe() << '\n'
           << repetitions;
  return snapshot::crc_hex(snapshot::crc32(identity.str()));
}

ExperimentCheckpoint read_checkpoint_file(const std::string& path,
                                          const std::string& expected_digest) {
  const auto contents = sfs::default_fs().read_file(path);
  if (!contents.has_value()) {
    throw SnapshotError("checkpoint: cannot open " + path);
  }
  const Value outer =
      snapshot::unseal(*contents, kMagic, kFormat, "checkpoint " + path);
  const std::string& digest = snapshot::require_string(outer, "digest");
  if (!expected_digest.empty() && digest != expected_digest) {
    throw SnapshotError("checkpoint: digest mismatch in " + path +
                        " (file belongs to a different experiment)");
  }
  const std::string& payload = snapshot::require_string(outer, "payload");
  const auto state = support::json::parse(payload);
  if (!state.has_value()) {
    throw SnapshotError("checkpoint: unparsable payload in " + path);
  }
  snapshot::check_header(*state, kPayloadId, kPayloadVersion);

  ExperimentCheckpoint checkpoint;
  checkpoint.repetitions =
      static_cast<std::size_t>(snapshot::require_index(*state, "repetitions"));
  for (const auto& entry : snapshot::require_array(*state, "completed")) {
    checkpoint.completed.push_back(result_from_state(entry));
  }
  checkpoint.complete = snapshot::require_bool(*state, "complete");
  if (state->find("in_flight_rep") != nullptr) {
    checkpoint.in_flight_rep = static_cast<std::size_t>(
        snapshot::require_index(*state, "in_flight_rep"));
  }
  if (const Value* run = state->find("run"); run != nullptr) {
    if (!run->is_object()) {
      throw SnapshotError("checkpoint: run state must be an object: " + path);
    }
    checkpoint.run = *run;
  }
  if (checkpoint.run.has_value() != checkpoint.in_flight_rep.has_value()) {
    throw SnapshotError(
        "checkpoint: run state and in_flight_rep must come together: " + path);
  }
  if (checkpoint.completed.size() > checkpoint.repetitions) {
    throw SnapshotError("checkpoint: more results than repetitions: " + path);
  }
  return checkpoint;
}

std::optional<std::string> peek_checkpoint_digest(const std::string& path) {
  // Envelope first: valid JSON with a string "digest" field.
  if (const auto contents = sfs::default_fs().read_file(path);
      contents.has_value()) {
    if (const auto outer = support::json::parse(*contents);
        outer.has_value() && outer->is_object()) {
      if (const auto* digest = outer->find("digest");
          digest != nullptr && digest->is_string()) {
        return digest->as_string();
      }
    }
    // Torn or bit-flipped envelope: the digest field sits near the front of
    // the file, so a raw byte scan usually survives truncation.
    static constexpr std::string_view kKey = "\"digest\"";
    if (const auto key = contents->find(kKey); key != std::string::npos) {
      auto open = contents->find('"', key + kKey.size());
      if (open != std::string::npos &&
          contents->find(':', key + kKey.size()) < open) {
        const auto close = contents->find('"', open + 1);
        if (close != std::string::npos) {
          return contents->substr(open + 1, close - open - 1);
        }
      }
    }
  }
  // Last resort: the ckpt-<digest>-<seq>.json naming convention.
  const auto slash = path.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  static constexpr std::string_view kPrefix = "ckpt-";
  if (name.compare(0, kPrefix.size(), kPrefix) == 0) {
    const auto dash = name.find('-', kPrefix.size());
    if (dash != std::string::npos && dash > kPrefix.size()) {
      return name.substr(kPrefix.size(), dash - kPrefix.size());
    }
  }
  return std::nullopt;
}

namespace {

// Matches "ckpt-<digest>-<seq>.json" for this manager's digest; returns the
// sequence number.
std::optional<std::uint64_t> parse_seq(const std::string& file_name,
                                       const std::string& digest) {
  const std::string prefix = "ckpt-" + digest + "-";
  const std::string suffix = ".json";
  if (file_name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (file_name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (file_name.compare(file_name.size() - suffix.size(), suffix.size(),
                        suffix) != 0) {
    return std::nullopt;
  }
  const std::string digits = file_name.substr(
      prefix.size(), file_name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return std::nullopt;
  std::uint64_t seq = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    if (seq > (UINT64_MAX - 9) / 10) return std::nullopt;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return seq;
}

// All checkpoint files for `digest` in `dir`, newest (highest seq) first.
// The explicit numeric sort is load-bearing: directory listings come back in
// arbitrary order, and lexicographic order is wrong once sequence numbers
// outgrow their zero padding ("ckpt-x-9.json" > "ckpt-x-10.json").
std::vector<std::pair<std::uint64_t, std::string>> list_checkpoints(
    const std::string& dir, const std::string& digest) {
  std::vector<std::pair<std::uint64_t, std::string>> files;
  for (const auto& name : sfs::default_fs().list_dir(dir)) {
    const auto seq = parse_seq(name, digest);
    if (seq.has_value()) files.emplace_back(*seq, dir + "/" + name);
  }
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return files;
}

}  // namespace

CheckpointManager::CheckpointManager(CheckpointConfig config,
                                     std::string digest)
    : config_(std::move(config)), digest_(std::move(digest)) {
  if (!config_.enabled()) {
    throw std::invalid_argument("CheckpointManager: empty checkpoint dir");
  }
  if (config_.keep == 0) config_.keep = 1;
  // Never reuse an existing sequence number, even when resume is off: a
  // crashed run's files must not be silently overwritten mid-prune.
  for (const auto& [seq, path] : list_checkpoints(config_.dir, digest_)) {
    next_seq_ = std::max(next_seq_, seq + 1);
  }
}

std::string CheckpointManager::file_path(std::uint64_t seq) const {
  char digits[21];
  std::snprintf(digits, sizeof(digits), "%08llu",
                static_cast<unsigned long long>(seq));
  return config_.dir + "/ckpt-" + digest_ + "-" + digits + ".json";
}

std::optional<ExperimentCheckpoint> CheckpointManager::restore() {
  auto& registry = support::MetricsRegistry::global();
  static support::Counter& restores =
      registry.counter(support::metric::kCheckpointRestores);
  static support::Counter& invalid =
      registry.counter(support::metric::kCheckpointInvalidFiles);
  for (const auto& [seq, path] : list_checkpoints(config_.dir, digest_)) {
    try {
      ExperimentCheckpoint checkpoint = read_checkpoint_file(path, digest_);
      restores.add();
      MAK_LOG_INFO << "checkpoint: resuming from " << path << " ("
                   << checkpoint.completed.size() << "/"
                   << checkpoint.repetitions << " repetitions done)";
      return checkpoint;
    } catch (const SnapshotError& error) {
      invalid.add();
      MAK_LOG_WARN << "checkpoint: skipping invalid file " << path << ": "
                   << error.what();
    }
  }
  return std::nullopt;
}

void CheckpointManager::write(const ExperimentCheckpoint& checkpoint) {
  auto& registry = support::MetricsRegistry::global();
  static support::Counter& writes =
      registry.counter(support::metric::kCheckpointWrites);
  static support::Histogram& write_wall_us = registry.histogram(
      support::metric::kCheckpointWriteWallUs, support::duration_bounds_us());
  const support::MetricSpan span(write_wall_us, nullptr, nullptr);

  auto state = snapshot::make_state(kPayloadId, kPayloadVersion);
  state.emplace("repetitions", static_cast<double>(checkpoint.repetitions));
  support::json::Array completed;
  completed.reserve(checkpoint.completed.size());
  for (const auto& result : checkpoint.completed) {
    completed.push_back(result_to_state(result));
  }
  state.emplace("completed", Value(std::move(completed)));
  state.emplace("complete", Value(checkpoint.complete));
  if (checkpoint.in_flight_rep.has_value()) {
    state.emplace("in_flight_rep",
                  static_cast<double>(*checkpoint.in_flight_rep));
  }
  if (checkpoint.run.has_value()) {
    state.emplace("run", *checkpoint.run);
  }
  support::json::Object binding;
  binding.emplace("digest", digest_);
  binding.emplace("seq", static_cast<double>(next_seq_));
  const std::string text =
      snapshot::seal(kMagic, kFormat, std::move(binding),
                     support::json::dump(Value(std::move(state))));

  auto& disk = sfs::default_fs();
  disk.create_directories(config_.dir);
  const std::string path = file_path(next_seq_);
  const std::string tmp = path + ".tmp";
  // Torn writes that report success land here as a corrupt-but-named file;
  // the CRC envelope makes restore() skip it, so they cost recompute, not
  // correctness. Clean failures surface as SnapshotError for the caller.
  if (!disk.write_file(tmp, text, /*durable=*/true)) {
    disk.remove(tmp);  // best effort
    throw SnapshotError("checkpoint: write failed: " + tmp);
  }
  if (!disk.rename(tmp, path)) {
    disk.remove(tmp);  // best effort
    throw SnapshotError("checkpoint: rename failed: " + path);
  }
  ++next_seq_;
  writes.add();

  // Prune: keep the newest `keep` files (including the one just written),
  // by sequence number — list_checkpoints sorts numerically.
  const auto files = list_checkpoints(config_.dir, digest_);
  for (std::size_t i = config_.keep; i < files.size(); ++i) {
    disk.remove(files[i].second);  // best effort
  }
}

}  // namespace mak::harness
