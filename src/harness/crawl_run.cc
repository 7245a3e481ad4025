#include "harness/crawl_run.h"

#include <stdexcept>
#include <utility>

#include "rl/regret.h"
#include "support/rng.h"
#include "support/snapshot.h"

namespace mak::harness {

namespace snapshot = mak::support::snapshot;

namespace {
constexpr std::string_view kRunStateId = "harness.run";
constexpr int kRunStateVersion = 1;
}  // namespace

CrawlRun::CrawlRun(const apps::AppInfo& app_info, CrawlerKind kind,
                   const RunConfig& config)
    // Fresh application instance per run: sessions, user content and
    // coverage all start clean, like restarting the container between runs.
    : info_(app_info),
      config_(config),
      app_(info_.factory()),
      deadline_(clock_, config_.budget) {
  network_.emplace(clock_);
  network_->register_host(app_->host(), *app_);

  support::Rng master(config_.seed);
  browser_.emplace(*network_, app_->seed_url(), master.fork(),
                   config_.fill_strategy);
  crawler_ = make_crawler(kind, master.fork());

  // Fault injection: its own RNG stream, forked after the browser/crawler
  // streams, so a disabled profile leaves those streams — and therefore
  // the whole run — bit-identical to a build without fault injection.
  if (config_.fault.enabled()) {
    injector_.emplace(config_.fault, master.fork().next(), clock_);
    network_->set_fault_injector(&*injector_);
  }
  if (config_.fault.retry.active()) {
    browser_->set_retry_policy(config_.fault.retry);
  }
  // App-side drift: forked after the injector's stream, for the same reason.
  if (config_.drift.enabled()) {
    drift_.emplace(config_.drift, master.fork().next(), clock_);
    app_->set_drift_engine(&*drift_);
  }
}

std::size_t CrawlRun::covered_lines() const {
  return app_->tracker().covered_lines();
}

std::string_view CrawlRun::crawler_name() const { return crawler_->name(); }

bool CrawlRun::snapshot_capable() const noexcept {
  return crawler_->snapshotable() != nullptr;
}

void CrawlRun::start() {
  if (started_) return;
  crawler_->start(*browser_);
  started_ = true;
  if (config_.trace != nullptr) {
    core::TraceEvent event;
    event.kind = core::TraceEvent::Kind::kSeedLoad;
    event.time = clock_.now();
    event.url = browser_->page().url.to_string();
    event.status = browser_->page().status;
    event.new_links = crawler_->links_discovered();
    event.covered_lines = covered_lines();
    config_.trace->record(std::move(event));
  }
}

void CrawlRun::step() {
  // Xdebug-style any-time sampling: record coverage at every interval
  // boundary that has passed.
  while (clock_.now() >= next_sample_) {
    series_.record(next_sample_, covered_lines());
    next_sample_ += config_.sample_interval;
  }
  clock_.advance(config_.think_time);
  if (config_.trace == nullptr) {
    crawler_->step(*browser_);
    ++step_;
  } else {
    traced_step();
  }
  if (config_.step_hook) config_.step_hook(step_);
}

void CrawlRun::traced_step() {
  const std::size_t interactions_before = browser_->interactions();
  const std::size_t links_before = crawler_->links_discovered();
  const std::size_t retries_before = browser_->retries();
  crawler_->step(*browser_);
  ++step_;
  core::TraceEvent event;
  event.kind = browser_->interactions() > interactions_before
                   ? core::TraceEvent::Kind::kInteraction
                   : core::TraceEvent::Kind::kRecovery;
  event.time = clock_.now();
  event.step = step_;
  event.action = crawler_->last_action();
  event.url = browser_->page().url.to_string();
  event.status = browser_->page().status;
  event.new_links = crawler_->links_discovered() - links_before;
  event.covered_lines = covered_lines();
  event.retries = browser_->retries() - retries_before;
  config_.trace->record(std::move(event));
}

std::size_t CrawlRun::step_batch(std::size_t max_steps) {
  start();
  std::size_t ran = 0;
  while (ran < max_steps && !deadline_.expired()) {
    step();
    ++ran;
  }
  return ran;
}

support::json::Value CrawlRun::save_state() const {
  if (!snapshot_capable()) {
    throw std::logic_error("CrawlRun: crawler cannot snapshot");
  }
  if (!started_) {
    throw std::logic_error("CrawlRun: no in-flight state to save");
  }
  auto state = snapshot::make_state(kRunStateId, kRunStateVersion);
  state.emplace("clock_ms", static_cast<double>(clock_.now()));
  state.emplace("next_sample", static_cast<double>(next_sample_));
  state.emplace("step", static_cast<double>(step_));
  support::json::Array series;
  series.reserve(series_.points().size());
  for (const auto& point : series_.points()) {
    support::json::Array pair;
    pair.emplace_back(static_cast<double>(point.time));
    pair.emplace_back(static_cast<double>(point.covered_lines));
    series.emplace_back(std::move(pair));
  }
  state.emplace("series", support::json::Value(std::move(series)));
  state.emplace("app", app_->save_state());
  state.emplace("browser", browser_->save_state());
  state.emplace("crawler", crawler_->snapshotable()->save_state());
  if (injector_.has_value()) {
    state.emplace("injector", injector_->save_state());
  }
  if (drift_.has_value()) {
    state.emplace("drift", drift_->save_state());
  }
  return support::json::Value(std::move(state));
}

void CrawlRun::load_state(const support::json::Value& state) {
  if (!snapshot_capable()) {
    throw std::logic_error("CrawlRun: crawler cannot snapshot");
  }
  // Construction ran in the exact order of a fresh run, so the RNG fork
  // topology matches; each component's load_state then overwrites its
  // stream with the saved position.
  snapshot::check_header(state, kRunStateId, kRunStateVersion);
  clock_.restore(static_cast<support::VirtualMillis>(
      snapshot::require_index(state, "clock_ms")));
  next_sample_ = static_cast<support::VirtualMillis>(
      snapshot::require_index(state, "next_sample"));
  step_ = static_cast<std::size_t>(snapshot::require_index(state, "step"));
  series_ = coverage::CoverageSeries();
  for (const auto& entry : snapshot::require_array(state, "series")) {
    if (!entry.is_array() || entry.as_array().size() != 2 ||
        !entry.as_array()[0].is_number() || !entry.as_array()[1].is_number()) {
      throw support::SnapshotError("run state: malformed series point");
    }
    series_.record(
        static_cast<support::VirtualMillis>(entry.as_array()[0].as_number()),
        static_cast<std::size_t>(entry.as_array()[1].as_number()));
  }
  app_->load_state(snapshot::require(state, "app"));
  browser_->load_state(snapshot::require(state, "browser"));
  crawler_->snapshotable()->load_state(snapshot::require(state, "crawler"));
  if (injector_.has_value()) {
    injector_->load_state(snapshot::require(state, "injector"));
  }
  if (drift_.has_value()) {
    drift_->load_state(snapshot::require(state, "drift"));
  }
  started_ = true;
}

RunResult CrawlRun::result(const std::string& abort_reason) const {
  RunResult result;
  result.app = info_.name;
  result.crawler = std::string(crawler_->name());
  result.platform = info_.platform;
  result.total_lines = app_->code_model().total_lines();
  result.series = series_;
  if (finished()) {
    result.series.record(config_.budget, covered_lines());
  } else {
    // The budget-boundary sample would misrepresent an unfinished run.
    result.series.record(clock_.now(), covered_lines());
    result.aborted = true;
    result.abort_reason = abort_reason;
  }
  result.steps = step_;
  result.final_covered_lines = covered_lines();
  result.interactions = browser_->interactions();
  result.navigations = browser_->navigations();
  result.links_discovered = crawler_->links_discovered();
  result.covered = app_->tracker().lines();
  result.fault_active = injector_.has_value() || config_.fault.retry.active();
  result.retries = browser_->retries();
  result.transport_failures = browser_->transport_failures();
  result.timeouts = browser_->timeouts();
  result.backoff_ms = browser_->backoff_ms();
  if (injector_.has_value()) {
    const auto& counters = injector_->counters();
    result.injected_errors = counters.injected_errors;
    result.injected_drops = counters.injected_drops;
    result.latency_spikes = counters.latency_spikes;
    result.degraded_requests = counters.window_requests;
  }
  if (drift_.has_value()) {
    const auto& counters = drift_->counters();
    result.drift_active = true;
    result.drift_gone_requests = counters.gone_requests;
    result.drift_rewritten_links = counters.rewritten_links;
    result.drift_churned_links = counters.churned_links;
    result.drift_expired_sessions = counters.expired_sessions;
    result.drift_storm_requests = counters.storm_requests;
  }
  if (const rl::RegretAccountant* regret = crawler_->regret_accountant();
      regret != nullptr) {
    result.regret_tracked = true;
    result.realized_gain = regret->realized_gain();
    result.best_arm_gain = regret->best_arm_gain();
    result.weak_regret = regret->weak_regret();
    result.cumulative_regret = regret->cumulative_regret();
    result.policy_updates = regret->updates();
  }
  return result;
}

}  // namespace mak::harness
