// Experiment harness: runs crawlers against testbed apps under the paper's
// protocol — 30 virtual minutes per run, N repetitions, coverage sampled
// over time (Section V-A.4).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "apps/catalog.h"
#include "core/crawler.h"
#include "core/trace.h"
#include "core/mak.h"
#include "coverage/coverage.h"
#include "harness/supervisor.h"
#include "httpsim/fault.h"
#include "support/clock.h"
#include "webapp/drift.h"

namespace mak::harness {

// The crawler line-up of the paper plus the ablation variants.
enum class CrawlerKind {
  kMak,        // the paper's crawler
  kWebExplor,  // Q-learning baseline
  kQExplore,   // Q-learning baseline
  kBfs,        // static Head
  kDfs,        // static Tail
  kRandom,     // static Random
  // Ablations (Section 5 of DESIGN.md):
  kMakRawReward,       // no standardization
  kMakCuriosityReward, // curiosity instead of link coverage
  kMakFlatDeque,       // single-level deque
  kMakExp3Fixed,       // fixed-gamma Exp3
  kMakEpsilonGreedy,   // epsilon-greedy policy
  kMakUcb1,            // UCB1 (stochastic MAB) policy
  kMakDomNovelty,      // DOM-structural-novelty reward
  kMakThompson,        // Thompson-sampling policy
  kMakRottingExp3,     // discounted-gain Exp3 (rotting rewards)
  kMakDsee,            // deterministic exploration/exploitation
};

std::string_view to_string(CrawlerKind kind);
std::unique_ptr<core::Crawler> make_crawler(CrawlerKind kind,
                                            support::Rng rng);

// Every CrawlerKind in display order — the single source for --list output
// and name resolution in the CLIs and benches.
const std::vector<CrawlerKind>& all_crawler_kinds();
// Kind whose display name is `name`; nullopt if unknown.
std::optional<CrawlerKind> crawler_kind_from_name(std::string_view name);

// Bandit-policy panel: maps each rl::policy_catalog() name to the MAK
// variant running that policy (docs/policies.md).
std::optional<CrawlerKind> crawler_for_policy(std::string_view policy);

// Crash-resilient checkpointing (docs/robustness.md). With a non-empty
// `dir`, run_repeated/run_resumable write an atomic checkpoint file after
// every completed repetition and periodically mid-run (on a virtual-time
// cadence), and resume from the newest valid file instead of starting over.
struct CheckpointConfig {
  std::string dir;  // empty = checkpointing disabled
  // Mid-run cadence in virtual time (matches the run's budget semantics;
  // a 30-minute run with the default writes ~15 mid-run checkpoints).
  support::VirtualMillis interval = 2 * support::kMillisPerMinute;
  std::size_t every_steps = 0;  // also write every N crawl steps (0 = off)
  std::size_t keep = 3;         // checkpoint files retained per experiment
  bool resume = true;           // restore from the newest valid checkpoint

  bool enabled() const noexcept { return !dir.empty(); }
};

// Thrown by the run loop when RunConfig::crash_at_step fires: the in-process
// stand-in for a SIGKILL in crash-recovery tests.
struct InjectedCrash : std::runtime_error {
  InjectedCrash() : std::runtime_error("injected crash") {}
};

struct RunConfig {
  support::VirtualMillis budget = 30 * support::kMillisPerMinute;
  support::VirtualMillis sample_interval = 30 * support::kMillisPerSecond;
  // Client-side cost of one crawl step (decide + locate element + drive the
  // browser); identical for every crawler, so differences in interaction
  // counts reflect only page weights.
  support::VirtualMillis think_time = 700;
  std::uint64_t seed = 0x5eed;
  // Optional step-by-step event log (not owned; may be nullptr).
  core::CrawlTrace* trace = nullptr;
  // How the browser fills empty form fields.
  core::FormFillStrategy fill_strategy = core::FormFillStrategy::kCounter;
  // Adversarial-network profile (disabled by default: the run behaves
  // exactly as a fault-free run). Set explicitly or via MAK_FAULT_PROFILE
  // (see protocol_from_env). The profile's RetryPolicy configures the
  // browser's client-side resilience.
  httpsim::FaultProfile fault;
  // App-side nonstationary drift (webapp/drift.h; disabled by default, so
  // the app behaves exactly as a stationary one). Set explicitly or via
  // MAK_DRIFT (see protocol_from_env).
  webapp::DriftProfile drift;
  // Checkpoint/resume (used by run_repeated and run_resumable; a plain
  // run_once ignores it).
  CheckpointConfig checkpoint;
  // Budgets and stall detection; disabled by default.
  SupervisorConfig supervisor;
  // Test-only crash injection: throw InjectedCrash after completing this
  // many crawl steps (0 = never). Together with checkpointing this proves
  // resume reproduces the uninterrupted run bit-for-bit.
  std::size_t crash_at_step = 0;
  // Test hook invoked after every completed crawl step (may be empty).
  std::function<void(std::size_t step)> step_hook;
};

// Everything one crawl run produces.
struct RunResult {
  std::string app;
  std::string crawler;
  apps::Platform platform = apps::Platform::kPhp;
  coverage::CoverageSeries series;       // sampled coverage over time
  std::size_t final_covered_lines = 0;
  std::size_t total_lines = 0;           // app's declared total
  std::size_t interactions = 0;          // atomic element interactions
  std::size_t navigations = 0;           // seed (re)loads
  std::size_t links_discovered = 0;      // crawler's link coverage
  coverage::LineSet covered;             // exact covered set (for unions)

  // Fault-injection accounting (all zero when the profile is disabled).
  bool fault_active = false;
  std::size_t retries = 0;               // client retry attempts
  std::size_t transport_failures = 0;    // fetches that failed after retries
  std::size_t timeouts = 0;              // client timeout expirations
  support::VirtualMillis backoff_ms = 0; // virtual time spent backing off
  std::size_t injected_errors = 0;       // server-side injected 5xx
  std::size_t injected_drops = 0;        // injected connection drops
  std::size_t latency_spikes = 0;        // injected latency spikes
  std::size_t degraded_requests = 0;     // requests inside degradation windows

  // Drift accounting (all zero when the drift profile is disabled).
  bool drift_active = false;
  std::size_t drift_gone_requests = 0;    // URLs killed by deploys/flips
  std::size_t drift_rewritten_links = 0;  // links minted into a new world
  std::size_t drift_churned_links = 0;    // cache-busting link aliases
  std::size_t drift_expired_sessions = 0; // storm session expirations
  std::size_t drift_storm_requests = 0;   // requests routed inside storms

  // Cumulative-regret accounting (rl/regret.h; docs/policies.md). Present
  // for bandit-policy crawlers, zero/false otherwise.
  bool regret_tracked = false;
  double realized_gain = 0.0;            // sum of collected rewards
  double best_arm_gain = 0.0;            // IW estimate of the best arm
  double weak_regret = 0.0;              // final best - realized (>= 0)
  double cumulative_regret = 0.0;        // monotone high-water mark
  std::size_t policy_updates = 0;        // regret observations recorded

  // Supervisor outcome. A completed run leaves these at their defaults; an
  // aborted run carries partial coverage up to the cancellation point.
  std::size_t steps = 0;                 // crawl steps executed
  bool aborted = false;                  // supervisor cancelled the run
  std::string abort_reason;              // kAbortStalled / kAbortWallLimit /
                                         // kAbortStepLimit

  // Orchestrator outcome (src/harness/orchestrator.h). A repetition whose
  // worker exhausted its retries is carried as a failed placeholder — never
  // silently dropped — with the failure class of the final attempt.
  bool failed = false;
  std::string failure_class;             // crash / timeout / oom / transient
  std::size_t attempts = 0;              // worker attempts consumed
};

// Run one crawler once against a fresh instance of `app_info`'s app: a
// harness::CrawlRun (harness/crawl_run.h) stepped straight to its budget.
RunResult run_once(const apps::AppInfo& app_info, CrawlerKind kind,
                   const RunConfig& config);

// Run `repetitions` runs with derived seeds; returns one result per run.
// Repetitions are independent (each owns its app instance, network and
// clock), so they execute on a small thread pool when MAK_THREADS > 1
// (default: hardware concurrency, capped at 8). Results are ordered by
// repetition index and bit-identical to a serial execution.
// When config.checkpoint is enabled, repetitions run serially instead: a
// checkpoint is written after each one (plus mid-run for snapshotable
// crawlers) and a restart resumes from the newest valid checkpoint, skipping
// completed repetitions. The resumed results are bit-identical to an
// uninterrupted execution.
std::vector<RunResult> run_repeated(const apps::AppInfo& app_info,
                                    CrawlerKind kind, const RunConfig& config,
                                    std::size_t repetitions);

// Run one crawler once with checkpoint/resume support (the single-run
// analogue of run_repeated's checkpoint path; used by tools/mak_crawl).
// Resumes mid-run when the crawler is snapshotable, from scratch otherwise;
// with checkpointing disabled this is exactly run_once.
RunResult run_resumable(const apps::AppInfo& app_info, CrawlerKind kind,
                        const RunConfig& config);

// Repetitions/budget scaling for quick CI runs: reads MAK_REPS,
// MAK_BUDGET_MINUTES and MAK_SAMPLE_SECONDS environment variables, falling
// back to the paper's protocol (10 reps, 30 min, 30 s) when unset or empty.
// Robustness knobs ride along: MAK_CHECKPOINT_DIR, MAK_CHECKPOINT_SECONDS
// (virtual cadence), MAK_RESUME=0 (disable restore), MAK_HEARTBEAT_SEC,
// MAK_WALL_LIMIT_SEC and MAK_MAX_STEPS. The numeric knobs (and MAK_THREADS,
// read by run_repeated) go through support::env: garbage or an out-of-range
// value exits with a message naming the valid range.
struct Protocol {
  std::size_t repetitions = 10;
  RunConfig run;
};
Protocol protocol_from_env();

// Seed of repetition `rep` under `config` — the derivation run_repeated uses
// internally, exported so orchestrator workers running one repetition in
// their own process reproduce the serial run bit-for-bit.
std::uint64_t repetition_seed(const RunConfig& config, std::size_t rep);

}  // namespace mak::harness
