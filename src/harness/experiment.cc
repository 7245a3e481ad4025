#include "harness/experiment.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "baselines/qexplore.h"
#include "baselines/webexplor.h"
#include "harness/checkpoint.h"
#include "harness/crawl_run.h"
#include "support/env.h"
#include "support/log.h"
#include "support/metric_names.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/snapshot.h"

namespace mak::harness {

std::string_view to_string(CrawlerKind kind) {
  switch (kind) {
    case CrawlerKind::kMak:
      return "MAK";
    case CrawlerKind::kWebExplor:
      return "WebExplor";
    case CrawlerKind::kQExplore:
      return "QExplore";
    case CrawlerKind::kBfs:
      return "BFS";
    case CrawlerKind::kDfs:
      return "DFS";
    case CrawlerKind::kRandom:
      return "Random";
    case CrawlerKind::kMakRawReward:
      return "MAK-raw-reward";
    case CrawlerKind::kMakCuriosityReward:
      return "MAK-curiosity";
    case CrawlerKind::kMakFlatDeque:
      return "MAK-flat-deque";
    case CrawlerKind::kMakExp3Fixed:
      return "MAK-exp3-fixed";
    case CrawlerKind::kMakEpsilonGreedy:
      return "MAK-eps-greedy";
    case CrawlerKind::kMakUcb1:
      return "MAK-ucb1";
    case CrawlerKind::kMakDomNovelty:
      return "MAK-dom-novelty";
    case CrawlerKind::kMakThompson:
      return "MAK-thompson";
    case CrawlerKind::kMakRottingExp3:
      return "MAK-exp3-rotting";
    case CrawlerKind::kMakDsee:
      return "MAK-dsee";
  }
  return "?";
}

const std::vector<CrawlerKind>& all_crawler_kinds() {
  static const std::vector<CrawlerKind> kinds = {
      CrawlerKind::kMak,
      CrawlerKind::kWebExplor,
      CrawlerKind::kQExplore,
      CrawlerKind::kBfs,
      CrawlerKind::kDfs,
      CrawlerKind::kRandom,
      CrawlerKind::kMakRawReward,
      CrawlerKind::kMakCuriosityReward,
      CrawlerKind::kMakFlatDeque,
      CrawlerKind::kMakExp3Fixed,
      CrawlerKind::kMakEpsilonGreedy,
      CrawlerKind::kMakUcb1,
      CrawlerKind::kMakDomNovelty,
      CrawlerKind::kMakThompson,
      CrawlerKind::kMakRottingExp3,
      CrawlerKind::kMakDsee,
  };
  return kinds;
}

std::optional<CrawlerKind> crawler_kind_from_name(std::string_view name) {
  for (const CrawlerKind kind : all_crawler_kinds()) {
    if (to_string(kind) == name) return kind;
  }
  return std::nullopt;
}

std::optional<CrawlerKind> crawler_for_policy(std::string_view policy) {
  // Keyed by the canonical rl::policy_catalog() names; the binding is
  // cross-checked against the catalog in tests.
  if (policy == "exp3.1") return CrawlerKind::kMak;
  if (policy == "exp3") return CrawlerKind::kMakExp3Fixed;
  if (policy == "eps-greedy") return CrawlerKind::kMakEpsilonGreedy;
  if (policy == "ucb1") return CrawlerKind::kMakUcb1;
  if (policy == "thompson") return CrawlerKind::kMakThompson;
  if (policy == "exp3-rotting") return CrawlerKind::kMakRottingExp3;
  if (policy == "dsee") return CrawlerKind::kMakDsee;
  return std::nullopt;
}

std::unique_ptr<core::Crawler> make_crawler(CrawlerKind kind,
                                            support::Rng rng) {
  using core::MakConfig;
  switch (kind) {
    case CrawlerKind::kMak:
      return core::make_mak(std::move(rng));
    case CrawlerKind::kWebExplor:
      return std::make_unique<baselines::WebExplorCrawler>(std::move(rng));
    case CrawlerKind::kQExplore:
      return std::make_unique<baselines::QExploreCrawler>(std::move(rng));
    case CrawlerKind::kBfs:
      return core::make_static_bfs(std::move(rng));
    case CrawlerKind::kDfs:
      return core::make_static_dfs(std::move(rng));
    case CrawlerKind::kRandom:
      return core::make_static_random(std::move(rng));
    case CrawlerKind::kMakRawReward: {
      MakConfig config;
      config.reward_mode = MakConfig::RewardMode::kRawLinks;
      config.name_override = "MAK-raw-reward";
      return std::make_unique<core::MakCrawler>(std::move(rng), config);
    }
    case CrawlerKind::kMakCuriosityReward: {
      MakConfig config;
      config.reward_mode = MakConfig::RewardMode::kCuriosity;
      config.name_override = "MAK-curiosity";
      return std::make_unique<core::MakCrawler>(std::move(rng), config);
    }
    case CrawlerKind::kMakFlatDeque: {
      MakConfig config;
      config.leveled_deque = false;
      config.name_override = "MAK-flat-deque";
      return std::make_unique<core::MakCrawler>(std::move(rng), config);
    }
    case CrawlerKind::kMakExp3Fixed: {
      MakConfig config;
      config.policy = MakConfig::PolicyKind::kExp3Fixed;
      config.name_override = "MAK-exp3-fixed";
      return std::make_unique<core::MakCrawler>(std::move(rng), config);
    }
    case CrawlerKind::kMakEpsilonGreedy: {
      MakConfig config;
      config.policy = MakConfig::PolicyKind::kEpsilonGreedy;
      config.name_override = "MAK-eps-greedy";
      return std::make_unique<core::MakCrawler>(std::move(rng), config);
    }
    case CrawlerKind::kMakUcb1: {
      MakConfig config;
      config.policy = MakConfig::PolicyKind::kUcb1;
      config.name_override = "MAK-ucb1";
      return std::make_unique<core::MakCrawler>(std::move(rng), config);
    }
    case CrawlerKind::kMakDomNovelty: {
      MakConfig config;
      config.reward_mode = MakConfig::RewardMode::kDomNovelty;
      config.name_override = "MAK-dom-novelty";
      return std::make_unique<core::MakCrawler>(std::move(rng), config);
    }
    case CrawlerKind::kMakThompson: {
      MakConfig config;
      config.policy = MakConfig::PolicyKind::kThompson;
      config.name_override = "MAK-thompson";
      return std::make_unique<core::MakCrawler>(std::move(rng), config);
    }
    case CrawlerKind::kMakRottingExp3: {
      MakConfig config;
      config.policy = MakConfig::PolicyKind::kRottingExp3;
      config.name_override = "MAK-exp3-rotting";
      return std::make_unique<core::MakCrawler>(std::move(rng), config);
    }
    case CrawlerKind::kMakDsee: {
      MakConfig config;
      config.policy = MakConfig::PolicyKind::kDsee;
      config.name_override = "MAK-dsee";
      return std::make_unique<core::MakCrawler>(std::move(rng), config);
    }
  }
  throw std::logic_error("unknown crawler kind");
}

namespace {

// Checkpoint wiring for one run inside a (possibly repeated) experiment.
// Null manager = no checkpointing; `restore_run` carries the mid-run state
// to resume from (already digest- and CRC-validated by the manager).
struct CheckpointContext {
  CheckpointManager* manager = nullptr;
  std::size_t repetitions = 1;
  std::size_t rep_index = 0;
  const std::vector<RunResult>* completed = nullptr;
  const support::json::Value* restore_run = nullptr;
};

// A failed checkpoint write (ENOSPC, torn-write detection, failed rename)
// costs at most recompute — restore-newest-valid falls back to the previous
// file — so it must never kill the run it's protecting.
void write_checkpoint_tolerant(CheckpointManager& manager,
                               const ExperimentCheckpoint& checkpoint) {
  static support::Counter& failures = support::MetricsRegistry::global().counter(
      support::metric::kCheckpointWriteFailures);
  try {
    manager.write(checkpoint);
  } catch (const support::SnapshotError& error) {
    failures.add();
    MAK_LOG_WARN << "checkpoint: write failed, continuing without it: "
                 << error.what();
  }
}

// Drives one CrawlRun straight through its budget: resume from the
// checkpointed run state when there is one, poll the supervisor between
// steps, write mid-run checkpoints on their cadence.
RunResult run_one(const apps::AppInfo& app_info, CrawlerKind kind,
                  const RunConfig& config, const CheckpointContext* ckpt) {
  namespace metric = support::metric;
  auto& registry = support::MetricsRegistry::global();
  static support::Counter& runs_counter = registry.counter(metric::kHarnessRuns);
  static support::Histogram& run_wall_us = registry.histogram(
      metric::kHarnessRunWallUs, support::duration_bounds_us());
  // Runs last whole virtual minutes, so the default latency buckets would
  // lump them all into overflow; bucket by minutes up to an hour instead.
  static support::Histogram& run_virtual_ms = registry.histogram(
      metric::kHarnessRunVirtualMs,
      {60000, 120000, 300000, 600000, 900000, 1200000, 1800000, 2700000,
       3600000});
  runs_counter.add();

  CrawlRun run(app_info, kind, config);
  // Destroyed before the run, charging the whole run's wall and virtual
  // cost (the clock is still at zero here, also on resume).
  const support::MetricSpan run_span(run_wall_us, &run_virtual_ms,
                                     &run.clock());

  // Mid-run resume is only possible when the crawler can snapshot itself;
  // Q-learning baselines restart the repetition instead (bit-identical
  // anyway, because every repetition is a pure function of its seed).
  if (ckpt != nullptr && ckpt->restore_run != nullptr &&
      run.snapshot_capable()) {
    run.load_state(*ckpt->restore_run);
    MAK_LOG_INFO << app_info.name << " / " << run.crawler_name()
                 << ": resumed at step " << run.steps() << ", t="
                 << run.now() << " ms";
  }
  run.start();

  // Periodic mid-run checkpoints on a virtual-time (and optional step)
  // cadence. Captured state is "top of loop": the next iteration after a
  // resume sees exactly what the uninterrupted run saw.
  CheckpointManager* manager =
      ckpt != nullptr && run.snapshot_capable() ? ckpt->manager : nullptr;
  support::VirtualMillis last_checkpoint = run.now();
  const auto checkpoint_due = [&]() {
    const CheckpointConfig& cc = manager->config();
    if (cc.every_steps > 0 && run.steps() % cc.every_steps == 0) return true;
    return cc.interval > 0 && run.now() - last_checkpoint >= cc.interval;
  };

  std::optional<RunSupervisor> supervisor;
  if (config.supervisor.enabled()) supervisor.emplace(config.supervisor);

  std::string abort_reason;
  while (!run.finished()) {
    if (supervisor.has_value()) {
      abort_reason = supervisor->should_abort(run.steps());
      if (!abort_reason.empty()) {
        MAK_LOG_WARN << app_info.name << " / " << run.crawler_name()
                     << ": aborted (" << abort_reason << ") after "
                     << run.steps() << " steps";
        break;
      }
    }
    run.step();
    if (supervisor.has_value()) supervisor->heartbeat();
    if (manager != nullptr && checkpoint_due()) {
      ExperimentCheckpoint out;
      out.repetitions = ckpt->repetitions;
      out.completed = *ckpt->completed;
      out.in_flight_rep = ckpt->rep_index;
      out.run = run.save_state();
      write_checkpoint_tolerant(*manager, out);
      last_checkpoint = run.now();
    }
    if (config.crash_at_step != 0 && run.steps() >= config.crash_at_step) {
      throw InjectedCrash();
    }
  }
  RunResult result = run.result(abort_reason);
  MAK_LOG_INFO << app_info.name << " / " << result.crawler << ": covered "
               << result.final_covered_lines << "/" << result.total_lines
               << " lines in " << result.interactions << " interactions";
  return result;
}

}  // namespace

RunResult run_once(const apps::AppInfo& app_info, CrawlerKind kind,
                   const RunConfig& config) {
  return run_one(app_info, kind, config, nullptr);
}

std::uint64_t repetition_seed(const RunConfig& config, std::size_t rep) {
  return support::mix64(config.seed ^ (0xabcd0000 + rep));
}

namespace {

RunConfig seeded_config(const RunConfig& config, std::size_t rep) {
  RunConfig rep_config = config;
  rep_config.seed = repetition_seed(config, rep);
  return rep_config;
}

// Serial checkpointed execution: one checkpoint after every completed
// repetition (plus the mid-run cadence inside run_one), resume skipping
// everything already done.
std::vector<RunResult> run_repeated_checkpointed(const apps::AppInfo& app_info,
                                                 CrawlerKind kind,
                                                 const RunConfig& config,
                                                 std::size_t repetitions) {
  CheckpointManager manager(config.checkpoint,
                            run_digest(app_info, kind, config, repetitions));
  std::vector<RunResult> results;
  std::optional<support::json::Value> run_state;
  std::size_t start_rep = 0;
  if (config.checkpoint.resume) {
    if (auto restored = manager.restore();
        restored.has_value() && restored->repetitions == repetitions &&
        restored->completed.size() <= repetitions) {
      results = std::move(restored->completed);
      start_rep = results.size();
      if (restored->complete || start_rep == repetitions) return results;
      if (restored->run.has_value() && restored->in_flight_rep == start_rep) {
        run_state = std::move(restored->run);
      }
    }
  }
  for (std::size_t rep = start_rep; rep < repetitions; ++rep) {
    CheckpointContext ctx;
    ctx.manager = &manager;
    ctx.repetitions = repetitions;
    ctx.rep_index = rep;
    ctx.completed = &results;
    ctx.restore_run = (rep == start_rep && run_state.has_value())
                          ? &*run_state
                          : nullptr;
    results.push_back(run_one(app_info, kind, seeded_config(config, rep), &ctx));
    ExperimentCheckpoint boundary;
    boundary.repetitions = repetitions;
    boundary.completed = results;
    boundary.complete = rep + 1 == repetitions;
    write_checkpoint_tolerant(manager, boundary);
  }
  return results;
}

std::size_t worker_count(std::size_t repetitions) {
  // Unset or empty: hardware concurrency, capped at 8.
  std::size_t workers = support::env::require_count("MAK_THREADS", 0, 4096);
  if (workers == 0) {
    workers = std::min<std::size_t>(std::thread::hardware_concurrency(), 8);
    if (workers == 0) workers = 1;
  }
  return std::min(workers, repetitions);
}

}  // namespace

std::vector<RunResult> run_repeated(const apps::AppInfo& app_info,
                                    CrawlerKind kind, const RunConfig& config,
                                    std::size_t repetitions) {
  if (repetitions == 0) return {};
  if (config.checkpoint.enabled()) {
    return run_repeated_checkpointed(app_info, kind, config, repetitions);
  }
  std::vector<RunResult> results(repetitions);

  const std::size_t workers = worker_count(repetitions);
  if (workers <= 1 || config.trace != nullptr) {
    // Serial (also whenever a shared trace sink is attached).
    for (std::size_t rep = 0; rep < repetitions; ++rep) {
      results[rep] = run_once(app_info, kind, seeded_config(config, rep));
    }
    return results;
  }

  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t rep = next.fetch_add(1);
        if (rep >= repetitions) return;
        RunConfig rep_config = seeded_config(config, rep);
        rep_config.trace = nullptr;  // no shared sink across threads
        results[rep] = run_once(app_info, kind, rep_config);
      }
    });
  }
  for (auto& thread : pool) thread.join();
  return results;
}

RunResult run_resumable(const apps::AppInfo& app_info, CrawlerKind kind,
                        const RunConfig& config) {
  if (!config.checkpoint.enabled()) return run_once(app_info, kind, config);
  // Single run under the RAW config seed (unlike run_repeated's per-rep
  // mixing), so `mak_crawl --seed S` resumes exactly the run it started.
  CheckpointManager manager(config.checkpoint,
                            run_digest(app_info, kind, config, 1));
  std::optional<support::json::Value> run_state;
  if (config.checkpoint.resume) {
    if (auto restored = manager.restore();
        restored.has_value() && restored->repetitions == 1) {
      if (restored->complete && !restored->completed.empty()) {
        return std::move(restored->completed.front());
      }
      if (restored->run.has_value() && restored->in_flight_rep == 0u) {
        run_state = std::move(restored->run);
      }
    }
  }
  const std::vector<RunResult> completed;
  CheckpointContext ctx;
  ctx.manager = &manager;
  ctx.repetitions = 1;
  ctx.rep_index = 0;
  ctx.completed = &completed;
  ctx.restore_run = run_state.has_value() ? &*run_state : nullptr;
  RunResult result = run_one(app_info, kind, config, &ctx);
  ExperimentCheckpoint final_state;
  final_state.repetitions = 1;
  final_state.completed.push_back(result);
  final_state.complete = true;
  write_checkpoint_tolerant(manager, final_state);
  return result;
}

Protocol protocol_from_env() {
  // Validated parsing (support/env.h): a typo must not silently run the
  // default protocol. Zero means "disabled" for the supervisor knobs.
  namespace env = support::env;
  Protocol p;
  p.repetitions = env::require_count("MAK_REPS", 10, 100000);
  p.run.budget = static_cast<support::VirtualMillis>(
                     env::require_count("MAK_BUDGET_MINUTES", 30, 100000)) *
                 support::kMillisPerMinute;
  p.run.sample_interval = static_cast<support::VirtualMillis>(
                              env::require_count("MAK_SAMPLE_SECONDS", 30,
                                                 86400)) *
                          support::kMillisPerSecond;
  if (const auto fault = httpsim::FaultProfile::from_env()) {
    p.run.fault = *fault;
  } else if (const char* spec = std::getenv("MAK_FAULT_PROFILE");
             spec != nullptr && *spec != '\0') {
    MAK_LOG_WARN << "ignoring unparsable MAK_FAULT_PROFILE: " << spec;
  }
  if (const auto drift = webapp::DriftProfile::from_env()) {
    p.run.drift = *drift;
  } else if (const char* spec = std::getenv("MAK_DRIFT");
             spec != nullptr && *spec != '\0') {
    MAK_LOG_WARN << "ignoring unparsable MAK_DRIFT: " << spec;
  }
  if (const char* dir = std::getenv("MAK_CHECKPOINT_DIR");
      dir != nullptr && *dir != '\0') {
    p.run.checkpoint.dir = dir;
  }
  p.run.checkpoint.interval =
      static_cast<support::VirtualMillis>(
          env::require_count("MAK_CHECKPOINT_SECONDS", 120, 86400)) *
      support::kMillisPerSecond;
  if (const char* resume = std::getenv("MAK_RESUME");
      resume != nullptr && std::string_view(resume) == "0") {
    p.run.checkpoint.resume = false;
  }
  p.run.supervisor.heartbeat_ms =
      static_cast<long>(env::require_int("MAK_HEARTBEAT_SEC", 0, 0, 86400)) *
      1000;
  p.run.supervisor.wall_limit_ms =
      static_cast<long>(env::require_int("MAK_WALL_LIMIT_SEC", 0, 0, 86400)) *
      1000;
  p.run.supervisor.max_steps = static_cast<std::size_t>(
      env::require_int("MAK_MAX_STEPS", 0, 0, 1000000000000LL));
  return p;
}

}  // namespace mak::harness
