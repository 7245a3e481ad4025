// The crawl engine: one run of one crawler against a fresh app instance,
// steppable in batches of any size (Section V-A protocol: a virtual-time
// budget, coverage sampled along the way).
//
// Every execution path drives this one object. run_once/run_repeated step
// it straight through under the supervisor and checkpoint cadence
// (experiment.cc); serve::SessionServer steps it in scheduling quanta and
// suspends it between them; both worker children step it out-of-process.
// Batched, resumed and straight-through runs are therefore the same code,
// and its state codec ("harness.run" v1) is the one mid-run checkpoints and
// suspended sessions share.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "apps/catalog.h"
#include "core/browser.h"
#include "harness/experiment.h"
#include "httpsim/fault.h"
#include "httpsim/network.h"
#include "support/clock.h"
#include "support/json.h"
#include "webapp/drift.h"

namespace mak::harness {

class CrawlRun {
 public:
  // Builds the run's components in a fixed order — app, clock, network,
  // browser, crawler, then the optional fault injector and drift engine —
  // because each RNG stream is forked from the seed in that order. Throws
  // std::invalid_argument on a negative budget.
  CrawlRun(const apps::AppInfo& app_info, CrawlerKind kind,
           const RunConfig& config);

  CrawlRun(const CrawlRun&) = delete;
  CrawlRun& operator=(const CrawlRun&) = delete;

  // Loads the seed page (and records the trace's seed-load event). No-op
  // once started or after load_state.
  void start();

  // One crawl step: record the coverage samples that fell due, advance the
  // think time, step the crawler, then the trace event and step_hook.
  // Requires started() and !finished().
  void step();

  // Starts if needed, then runs up to `max_steps` steps, stopping early
  // when the virtual budget expires. Returns the steps executed.
  std::size_t step_batch(std::size_t max_steps);

  bool started() const noexcept { return started_; }
  // True once the virtual budget is exhausted; no further steps run.
  bool finished() const noexcept { return started_ && deadline_.expired(); }

  std::size_t steps() const noexcept { return step_; }
  support::VirtualMillis now() const noexcept { return clock_.now(); }
  const support::SimClock& clock() const noexcept { return clock_; }
  std::string_view crawler_name() const;

  // True when the crawler supports mid-run state capture — the
  // prerequisite for save_state/load_state.
  bool snapshot_capable() const noexcept;

  // Full run state (standard {"id","v"} header, id "harness.run" v1).
  // Throws std::logic_error when !snapshot_capable() or !started().
  support::json::Value save_state() const;

  // Restore a freshly constructed run (same app, crawler and config) to a
  // saved state. Throws support::SnapshotError on any mismatch.
  void load_state(const support::json::Value& state);

  // Final accounting. A finished run ends its series with the sample at
  // the budget boundary; an unfinished one ends it at the current instant
  // and is marked aborted with `abort_reason`.
  RunResult result(const std::string& abort_reason = "") const;

 private:
  void traced_step();
  std::size_t covered_lines() const;

  apps::AppInfo info_;
  RunConfig config_;
  std::unique_ptr<apps::SyntheticApp> app_;
  support::SimClock clock_;
  support::Deadline deadline_;
  std::optional<httpsim::Network> network_;
  std::optional<core::Browser> browser_;
  std::unique_ptr<core::Crawler> crawler_;
  std::optional<httpsim::FaultInjector> injector_;
  std::optional<webapp::DriftEngine> drift_;

  coverage::CoverageSeries series_;
  support::VirtualMillis next_sample_ = 0;
  std::size_t step_ = 0;
  bool started_ = false;
};

}  // namespace mak::harness
