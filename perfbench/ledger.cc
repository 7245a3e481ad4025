#include "ledger.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "baselines/webexplor.h"
#include "core/browser.h"
#include "core/frontier.h"
#include "coverage/coverage.h"
#include "harness/orchestrator.h"
#include "html/interactables.h"
#include "html/parser.h"
#include "httpsim/network.h"
#include "rl/exp3.h"
#include "serve/server.h"
#include "support/clock.h"
#include "support/metric_names.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/stats.h"

namespace perfbench {

namespace mh = mak::harness;
namespace metric = mak::support::metric;
using mak::httpsim::Request;
using mak::httpsim::Response;
using mak::support::mean_of;
using mak::support::median_of;
using mak::support::percentile_of;

namespace {

// Keeps replayed results observable so the timed calls are not elided.
volatile std::uint64_t sink = 0;

double us_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e6;
}

std::uint64_t counter(std::string_view name) {
  return mak::support::MetricsRegistry::global().counter(name).value();
}

struct Captured {
  Request request;
  Response response;
};

// A deterministic 1-in-k sample of the final (non-redirect) responses in
// crawl order; k doubles whenever the buffer fills, so long crawls are
// sampled evenly within a fixed memory bound.
class CaptureSample {
 public:
  void offer(const Request& request, const Response& response) {
    if (response.is_redirect()) return;
    if (seen_++ % stride_ != 0) return;
    entries_.push_back({request, response});
    if (entries_.size() < kCapacity) return;
    std::vector<Captured> kept;
    for (std::size_t i = 0; i < entries_.size(); i += 2) {
      kept.push_back(std::move(entries_[i]));
    }
    entries_ = std::move(kept);
    stride_ *= 2;
  }
  const std::vector<Captured>& entries() const noexcept { return entries_; }

 private:
  static constexpr std::size_t kCapacity = 1024;
  std::vector<Captured> entries_;
  std::size_t seen_ = 0;
  std::size_t stride_ = 1;
};

// Sums and samples over every ledger operation.
struct Ledger {
  std::vector<double> handle_us;
  double handle_total_us = 0.0;
  std::size_t requests = 0;
  double response_bytes = 0.0;

  std::vector<double> step_us;
  double step_total_us = 0.0;
  std::size_t steps = 0;
  double early_us = 0.0;  // first tenth of each crawl's steps
  double late_us = 0.0;   // last tenth
  double sample_total_us = 0.0;
  std::size_t samples = 0;

  std::vector<double> build_ms;
  std::vector<double> run_ms;  // plain run_once, untraced
  double traced_s = 0.0;
  double plain_s = 0.0;

  double build_page_us = 0.0, parse_us = 0.0, extract_us = 0.0;
  double webexplor_us = 0.0, qexplore_us = 0.0, fetch_us = 0.0;
  std::size_t pages = 0, fetches = 0;

  double take_requeue_us = 0.0, choose_update_us = 0.0;
  std::size_t take_requeues = 0, choose_updates = 0;
  std::size_t max_levels = 0;
};

class TimedHost final : public mak::httpsim::VirtualHost {
 public:
  TimedHost(mak::httpsim::VirtualHost& inner, Ledger& ledger,
            CaptureSample& capture)
      : inner_(inner), ledger_(ledger), capture_(capture) {}

  Response handle(const Request& request) override {
    const Clock::time_point t0 = Clock::now();
    Response response = inner_.handle(request);
    const double us = us_between(t0, Clock::now());
    ledger_.handle_us.push_back(us);
    ledger_.handle_total_us += us;
    ++ledger_.requests;
    ledger_.response_bytes += static_cast<double>(response.body.size());
    capture_.offer(request, response);
    return response;
  }

 private:
  mak::httpsim::VirtualHost& inner_;
  Ledger& ledger_;
  CaptureSample& capture_;
};

// Replays captured responses in order, whatever is asked.
class StubHost final : public mak::httpsim::VirtualHost {
 public:
  explicit StubHost(const std::vector<Captured>& entries) : entries_(entries) {}
  Response handle(const Request&) override {
    return entries_[next_++ % entries_.size()].response;
  }

 private:
  const std::vector<Captured>& entries_;
  std::size_t next_ = 0;
};

// Frontier and policy at a step mark: the MAK snapshot's "frontier" and
// "policy" states loaded into fresh objects and exercised there.
void price_mark(const mak::support::json::Value& state, Ledger& ledger) {
  constexpr int kRounds = 256;
  const auto* frontier_state = state.find("frontier");
  const auto* policy_state = state.find("policy");
  if (frontier_state == nullptr || policy_state == nullptr) return;

  mak::core::LeveledDeque frontier;
  frontier.load_state(*frontier_state);
  ledger.max_levels = std::max(ledger.max_levels, frontier.level_count());
  mak::support::Rng rng(0x1ed6e5);
  int done = 0;
  Clock::time_point t0 = Clock::now();
  for (; done < kRounds && !frontier.empty(); ++done) {
    const auto arm = static_cast<mak::core::Arm>(done % mak::core::kArmCount);
    const auto action = frontier.take(arm, rng);
    if (!action.has_value()) break;
    frontier.requeue(*action);
  }
  ledger.take_requeue_us += us_between(t0, Clock::now());
  ledger.take_requeues += static_cast<std::size_t>(done);

  mak::rl::Exp31 policy(mak::core::kArmCount);
  policy.load_state(*policy_state);
  t0 = Clock::now();
  for (int i = 0; i < kRounds; ++i) {
    const std::size_t arm = policy.choose(rng);
    policy.update(arm, rng.uniform01());
  }
  ledger.choose_update_us += us_between(t0, Clock::now());
  ledger.choose_updates += kRounds;
}

// One crawl rebuilt exactly as run_once builds it (fault and drift
// disabled), with per-step timing, coverage-sample timing and frontier /
// policy marks. Returns its output; mark work is excluded from traced_s.
OpOutput traced_crawl(const Op& op, Ledger& ledger, CaptureSample& capture,
                      mak::url::Url& origin, std::string& host_name) {
  const mh::RunConfig& config = op.config;
  if (config.fault.enabled() || config.fault.retry.active() ||
      config.drift.enabled()) {
    throw std::logic_error("perfbench: ledger crawls run without faults");
  }
  const Clock::time_point start = Clock::now();
  auto app = op.info.factory();
  ledger.build_ms.push_back(seconds_since(start) * 1e3);

  mak::support::SimClock clock;
  const mak::support::Deadline deadline(clock, config.budget);
  mak::httpsim::Network network(clock);
  TimedHost host(*app, ledger, capture);
  network.register_host(app->host(), host);
  origin = app->seed_url();
  host_name = app->host();
  mak::support::Rng master(config.seed);
  mak::core::Browser browser(network, app->seed_url(), master.fork(),
                             config.fill_strategy);
  auto crawler = mh::make_crawler(op.kind, master.fork());
  const bool marks = op.kind == mh::CrawlerKind::kMak;

  crawler->start(browser);
  mak::coverage::CoverageSeries series;
  std::vector<double> steps;
  double excluded_s = 0.0;
  std::size_t next_mark = 16;
  mak::support::VirtualMillis next_sample = 0;
  while (!deadline.expired()) {
    Clock::time_point s1 = Clock::now();
    if (clock.now() >= next_sample) {
      const Clock::time_point s0 = s1;
      while (clock.now() >= next_sample) {
        series.record(next_sample, app->tracker().covered_lines());
        ++ledger.samples;
        next_sample += config.sample_interval;
      }
      s1 = Clock::now();
      ledger.sample_total_us += us_between(s0, s1);
    }
    clock.advance(config.think_time);
    crawler->step(browser);
    const double us = us_between(s1, Clock::now());
    steps.push_back(us);
    if (marks && steps.size() == next_mark) {
      const Clock::time_point m0 = Clock::now();
      price_mark(crawler->snapshotable()->save_state(), ledger);
      excluded_s += seconds_since(m0);
      next_mark *= 4;
    }
  }
  OpOutput out;
  out.app = op.info.name;
  out.crawler = std::string(crawler->name());
  out.seed = config.seed;
  out.steps = steps.size();
  out.covered = app->tracker().covered_lines();
  out.links = crawler->links_discovered();
  out.total_lines = app->code_model().total_lines();
  out.completed = true;
  ledger.traced_s += seconds_since(start) - excluded_s;

  const std::size_t window = steps.size() / 10;
  for (std::size_t i = 0; i < window; ++i) {
    ledger.early_us += steps[i];
    ledger.late_us += steps[steps.size() - 1 - i];
  }
  for (const double us : steps) ledger.step_total_us += us;
  ledger.steps += steps.size();
  ledger.step_us.insert(ledger.step_us.end(), steps.begin(), steps.end());
  return out;
}

// HTML, state abstraction and transport, priced on the captured responses.
void price_replays(const std::vector<Captured>& entries,
                   const mak::url::Url& origin, const std::string& host_name,
                   Ledger& ledger) {
  if (entries.empty()) return;
  mak::baselines::WebExplorStateAbstraction states(
      mak::baselines::WebExplorConfig{});
  for (const Captured& entry : entries) {
    Clock::time_point t0 = Clock::now();
    const mak::core::Page page =
        mak::core::build_page(entry.request.url, entry.response.status,
                              entry.response.body, origin);
    Clock::time_point t1 = Clock::now();
    ledger.build_page_us += us_between(t0, t1);
    const mak::html::Document doc = mak::html::parse(entry.response.body);
    t0 = Clock::now();
    ledger.parse_us += us_between(t1, t0);
    const auto interactables = mak::html::extract_interactables(doc);
    t1 = Clock::now();
    ledger.extract_us += us_between(t0, t1);
    states.state_of(page);
    t0 = Clock::now();
    ledger.webexplor_us += us_between(t1, t0);
    const std::uint64_t hash = mak::html::qexplore_state_hash(page.dom);
    t1 = Clock::now();
    ledger.qexplore_us += us_between(t0, t1);
    sink = sink + interactables.size() + hash;
    ++ledger.pages;
  }

  mak::support::SimClock clock;
  mak::httpsim::Network network(clock);
  StubHost stub(entries);
  network.register_host(host_name, stub);
  mak::httpsim::CookieJar jar;
  const Clock::time_point t0 = Clock::now();
  for (const Captured& entry : entries) {
    network.fetch(entry.request.method, entry.request.url, entry.request.form,
                  jar);
  }
  ledger.fetch_us += us_between(t0, Clock::now());
  ledger.fetches += entries.size();
}

struct TierSamples {
  double process_s = 0.0;
  double in_process_s = 0.0;
  std::size_t process_runs = 0;
  std::size_t spawns = 0;
  ServeSamples serve;
};

// The process tier on `probe` ops: each op as one orchestrated repetition
// against the same repetition run in process.
void probe_process_tier(const std::vector<const Op*>& probe,
                        TierSamples& tiers, Verdict& verdict) {
  mh::OrchestratorConfig orch = mh::orchestrator_from_env();
  const ScratchDir scratch(orch.scratch_dir);
  orch.scratch_dir = scratch.path();
  for (const Op* op : probe) {
    mh::RunConfig in_process = op->config;
    in_process.seed = mh::repetition_seed(op->config, 0);
    const std::uint64_t spawns_before = counter(metric::kProcpoolSpawns);
    Clock::time_point t0 = Clock::now();
    const auto runs =
        mh::run_orchestrated(op->info, op->kind, op->config, 1, orch);
    tiers.process_s += seconds_since(t0);
    tiers.spawns += counter(metric::kProcpoolSpawns) - spawns_before;
    ++tiers.process_runs;
    t0 = Clock::now();
    const mh::RunResult local = mh::run_once(op->info, op->kind, in_process);
    tiers.in_process_s += seconds_since(t0);
    const OpOutput a = output_of(runs.front(), in_process.seed);
    const OpOutput b = output_of(local, in_process.seed);
    verdict.op(same_output(a, b), "process tier differs: " + canonical(a) +
                                      " vs " + canonical(b));
  }
}

// The session server on `probe` ops, each as one thread-tier session.
void probe_serve_tier(const std::vector<const Op*>& probe,
                      const std::vector<OpOutput>& expected,
                      const std::string& scratch, TierSamples& tiers,
                      Verdict& verdict) {
  const ScratchDir dir(scratch);
  mak::serve::SessionServer server(mak::serve::ServerConfig{}, dir.path());
  std::vector<std::uint64_t> ids;
  for (const Op* op : probe) {
    mak::serve::OpenRequest request;
    request.tenant = "probe";
    request.app = op->info.name;
    request.crawler = std::string(mh::to_string(op->kind));
    request.config = op->config;
    const Clock::time_point t0 = Clock::now();
    const auto outcome = server.open(request);
    tiers.serve.open_us.push_back(us_between(t0, Clock::now()));
    ids.push_back(outcome.admitted() ? outcome.id : 0);
  }
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    const std::size_t stepped = server.tick();
    const double ms = seconds_since(t0) * 1e3;
    if (stepped == 0) break;
    tiers.serve.tick_ms.push_back(ms);
    tiers.serve.tick_steps += stepped;
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::optional<mh::RunResult> result;
    if (ids[i] != 0) {
      const Clock::time_point t0 = Clock::now();
      result = server.close(ids[i]);
      tiers.serve.close_us.push_back(us_between(t0, Clock::now()));
    }
    const bool ok = result.has_value() &&
                    same_output(output_of(*result, probe[i]->config.seed),
                                expected[i]);
    verdict.op(ok, "session differs from run_once: " + canonical(expected[i]));
  }
  tiers.serve.retained_sessions = server.session_count();
  tiers.serve.evictions = server.stats().evicted;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::map<std::string, LayerMetric> run_ledger(Workload& workload,
                                         const PassResult& pass,
                                         double seconds,
                                         const std::string& scratch,
                                         Verdict& verdict) {
  const std::vector<Op>& ops = workload.ops();
  // Ledger order: spread across apps and crawlers before repeating any.
  std::vector<std::size_t> order = workload.cross_check_sample();
  if (order.empty()) order.push_back(0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (std::find(order.begin(), order.end(), i) == order.end()) {
      order.push_back(i);
    }
  }

  Ledger ledger;
  // Registry counters, summed over the traced crawls only.
  constexpr std::string_view kCounted[] = {
      metric::kBrowserParseCacheHits, metric::kBrowserParseCacheMisses,
      metric::kHttpsimFetches,        metric::kHttpsimRedirects,
      metric::kFrontierPushes,        metric::kFrontierDuplicates};
  std::map<std::string_view, double> counted;

  std::vector<const Op*> probe;
  std::vector<OpOutput> probe_expected;
  double probe_plain_s = 0.0;
  double pass_s_of_ledger_ops = 0.0;
  const Clock::time_point start = Clock::now();
  for (const std::size_t index : order) {
    if (ledger.run_ms.size() > 0 && seconds_since(start) >= seconds) break;
    const Op& op = ops[index];
    Clock::time_point t0 = Clock::now();
    const mh::RunResult plain = mh::run_once(op.info, op.kind, op.config);
    const double plain_s = seconds_since(t0);
    ledger.plain_s += plain_s;
    ledger.run_ms.push_back(plain_s * 1e3);
    if (index < pass.session_ms.size()) {
      pass_s_of_ledger_ops += pass.session_ms[index] / 1e3;
    }

    CaptureSample capture;
    mak::url::Url origin;
    std::string host_name;
    std::map<std::string_view, std::uint64_t> before;
    for (const std::string_view name : kCounted) before[name] = counter(name);
    const OpOutput traced =
        traced_crawl(op, ledger, capture, origin, host_name);
    for (const std::string_view name : kCounted) {
      counted[name] += static_cast<double>(counter(name) - before[name]);
    }
    const OpOutput untraced = output_of(plain, op.config.seed);
    verdict.op(same_output(traced, untraced) &&
                   same_output(traced, pass.outputs[index]),
               "traced crawl differs: " + canonical(traced) + " vs " +
                   canonical(untraced) + " vs " +
                   canonical(pass.outputs[index]));
    price_replays(capture.entries(), origin, host_name, ledger);

    if (probe.size() < 4 && (probe.empty() || probe_plain_s < 0.5)) {
      probe.push_back(&op);
      probe_expected.push_back(untraced);
      probe_plain_s += plain_s;
    }
  }

  const double misses = counted[metric::kBrowserParseCacheMisses];
  const double hits = counted[metric::kBrowserParseCacheHits];
  const double fetches = counted[metric::kHttpsimFetches];
  const double redirects = counted[metric::kHttpsimRedirects];
  const double pushes = counted[metric::kFrontierPushes];
  const double dups = counted[metric::kFrontierDuplicates];

  // A tier the workload's own pass did not use is probed on its ops.
  TierSamples tiers;
  if (pass.spawns > 0) {
    tiers.process_s = pass_s_of_ledger_ops;
    tiers.in_process_s = ledger.plain_s;
    tiers.process_runs = ops.size();
    tiers.spawns = pass.spawns;
  } else {
    probe_process_tier(probe, tiers, verdict);
  }
  if (!pass.serve.tick_ms.empty()) {
    tiers.serve = pass.serve;
  } else {
    probe_serve_tier(probe, probe_expected, scratch, tiers, verdict);
  }

  const double steps = static_cast<double>(ledger.steps);
  const double requests = static_cast<double>(ledger.requests);
  const double pages = static_cast<double>(ledger.pages);
  const double mean_step_us = ratio(ledger.step_total_us, steps);
  const double build_page_us = ratio(ledger.build_page_us, pages);
  const double tick_steps = static_cast<double>(tiers.serve.tick_steps);
  double tick_total_ms = 0.0;
  for (const double ms : tiers.serve.tick_ms) tick_total_ms += ms;
  const auto count = [](std::size_t n) { return static_cast<double>(n); };

  std::map<std::string, LayerMetric> m;
  m["apps.handle_us_p50"] = {percentile_of(ledger.handle_us, 50), "us"};
  m["apps.handle_us_p99"] = {percentile_of(ledger.handle_us, 99), "us"};
  m["apps.handle_share"] = {
      ratio(ledger.handle_total_us, ledger.step_total_us), "ratio"};
  m["apps.requests_per_step"] = {ratio(requests, steps), "requests/step"};
  m["apps.response_bytes_mean"] = {ratio(ledger.response_bytes, requests),
                                   "bytes"};
  m["apps.build_ms"] = {median_of(ledger.build_ms), "ms"};
  m["httpsim.fetch_us"] = {ratio(ledger.fetch_us, count(ledger.fetches)),
                           "us"};
  m["httpsim.redirects_per_fetch"] = {ratio(redirects, fetches), "ratio"};
  m["browser.parse_hit_ratio"] = {ratio(hits, hits + misses), "ratio"};
  m["html.build_page_us"] = {build_page_us, "us"};
  m["html.parse_us"] = {ratio(ledger.parse_us, pages), "us"};
  m["html.extract_us"] = {ratio(ledger.extract_us, pages), "us"};
  m["html.share_est"] = {
      ratio(ratio(misses, steps) * build_page_us, mean_step_us), "ratio"};
  m["baselines.webexplor_state_us"] = {ratio(ledger.webexplor_us, pages),
                                       "us"};
  m["baselines.qexplore_state_us"] = {ratio(ledger.qexplore_us, pages), "us"};
  m["frontier.take_requeue_us"] = {
      ratio(ledger.take_requeue_us, count(ledger.take_requeues)), "us"};
  m["frontier.levels"] = {count(ledger.max_levels), "count"};
  m["frontier.dup_ratio"] = {ratio(dups, pushes + dups), "ratio"};
  m["rl.choose_update_us"] = {
      ratio(ledger.choose_update_us, count(ledger.choose_updates)), "us"};
  m["crawler.step_us_growth"] = {ratio(ledger.late_us, ledger.early_us),
                                 "ratio"};
  m["crawler.step_us_p50"] = {percentile_of(ledger.step_us, 50), "us"};
  m["crawler.step_us_p99"] = {percentile_of(ledger.step_us, 99), "us"};
  m["crawler.self_share"] = {
      ratio(ledger.step_total_us - ledger.handle_total_us,
            ledger.step_total_us),
      "ratio"};
  m["coverage.sample_us"] = {
      ratio(ledger.sample_total_us, count(ledger.samples)), "us"};
  m["harness.run_ms_p50"] = {percentile_of(ledger.run_ms, 50), "ms"};
  m["harness.run_ms_p99"] = {percentile_of(ledger.run_ms, 99), "ms"};
  m["harness.pool_busy_ratio"] = {
      ratio(pass.busy_s, count(workload.concurrency()) * pass.wall_s),
      "ratio"};
  m["harness.worker_overhead_ratio"] = {
      ratio(tiers.process_s, tiers.in_process_s), "ratio"};
  m["procpool.spawns_per_run"] = {
      ratio(count(tiers.spawns), count(tiers.process_runs)), "count/run"};
  m["serve.tick_ms_p50"] = {percentile_of(tiers.serve.tick_ms, 50), "ms"};
  m["serve.tick_ms_p99"] = {percentile_of(tiers.serve.tick_ms, 99), "ms"};
  m["serve.steps_per_tick"] = {
      ratio(tick_steps, count(tiers.serve.tick_ms.size())), "steps/tick"};
  m["serve.tick_us_per_step"] = {ratio(tick_total_ms * 1e3, tick_steps),
                                 "us"};
  m["serve.open_us"] = {mean_of(tiers.serve.open_us), "us"};
  m["serve.close_us"] = {mean_of(tiers.serve.close_us), "us"};
  m["serve.retained_sessions"] = {count(tiers.serve.retained_sessions),
                                  "count"};
  m["serve.evictions"] = {count(tiers.serve.evictions), "count"};
  m["trace.overhead_ratio"] = {ratio(ledger.traced_s, ledger.plain_s),
                               "ratio"};
  return m;
}

}  // namespace perfbench
