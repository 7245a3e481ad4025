#include "workloads.h"

#include <stdexcept>
#include <utility>

#include "apps/generator/generator.h"
#include "harness/aggregate.h"
#include "harness/orchestrator.h"
#include "serve/server.h"
#include "support/metric_names.h"
#include "support/metrics.h"
#include "support/rng.h"

namespace perfbench {

namespace mh = mak::harness;
using mak::harness::CrawlerKind;
using mak::support::kMillisPerMinute;
using mak::support::kMillisPerSecond;

void PassResult::append(PassResult&& unit) {
  wall_s += unit.wall_s;
  for (auto& output : unit.outputs) outputs.push_back(std::move(output));
  step_us.insert(step_us.end(), unit.step_us.begin(), unit.step_us.end());
  session_ms.insert(session_ms.end(), unit.session_ms.begin(),
                    unit.session_ms.end());
  steps += unit.steps;
  coverage_sum += unit.coverage_sum;
  coverage_cells += unit.coverage_cells;
  busy_s += unit.busy_s;
  spawns += unit.spawns;
  if (!unit.serve.tick_ms.empty()) serve = std::move(unit.serve);
  for (auto& problem : unit.problems) problems.push_back(std::move(problem));
}

namespace {

// A protocol with the harness defaults (30-second coverage samples; no
// faults, drift, checkpoints or supervisor) at the given size.
mh::Protocol make_protocol(std::size_t reps, long minutes, std::uint64_t seed) {
  mh::Protocol p;
  p.repetitions = reps;
  p.run.budget = minutes * kMillisPerMinute;
  p.run.seed = seed;
  return p;
}

// --- table2 ---------------------------------------------------------------
// The paper's Table II protocol on the thread tier: every catalog app x
// {MAK, WebExplor, QExplore} x reps through harness::run_repeated.
class Table2 final : public Workload {
 public:
  Table2(std::uint64_t seed, bool tiny) {
    protocol_ = make_protocol(tiny ? 2 : 10, tiny ? 2 : 30, seed);
    for (const auto& info : mak::apps::app_catalog()) {
      if (tiny && apps_.size() == 2) break;
      apps_.push_back(&info);
    }
    for (const auto* info : apps_) {
      begin_unit();
      for (const CrawlerKind kind : kCrawlers) {
        for (std::size_t rep = 0; rep < protocol_.repetitions; ++rep) {
          Op op;
          op.info = *info;
          op.kind = kind;
          op.config = protocol_.run;
          op.config.seed = mh::repetition_seed(protocol_.run, rep);
          ops_.push_back(std::move(op));
        }
      }
    }
  }

  std::size_t concurrency() const override { return 2; }

  void setup() override {
    for (const auto* info : apps_) {
      if (info->factory()->code_model().total_lines() == 0) {
        throw std::runtime_error("perfbench: empty app " + info->name);
      }
    }
  }

  // One app's row: every crawler's repetitions, scored against the union
  // of what they covered.
  PassResult run_unit(std::size_t unit) override {
    PassResult out;
    std::vector<std::vector<mh::RunResult>> cells;
    mh::RunConfig config = protocol_.run;
    config.step_hook = StepTimer::hook(0);
    const mak::apps::AppInfo timed = StepTimer::timed(*apps_[unit]);
    StepTimer::reset();
    const Clock::time_point start = Clock::now();
    for (const CrawlerKind kind : kCrawlers) {
      cells.push_back(
          mh::run_repeated(timed, kind, config, protocol_.repetitions));
    }
    out.wall_s = seconds_since(start);
    StepTimer::collect(out.step_us, out.session_ms);
    for (const double ms : out.session_ms) out.busy_s += ms / 1e3;

    const std::size_t truth = mh::estimate_ground_truth(cells);
    for (const auto& cell : cells) {
      out.coverage_sum += mh::mean_coverage_percent(cell, truth);
      ++out.coverage_cells;
      for (std::size_t rep = 0; rep < cell.size(); ++rep) {
        out.outputs.push_back(
            output_of(cell[rep], mh::repetition_seed(protocol_.run, rep)));
        out.steps += cell[rep].steps;
      }
    }
    return out;
  }

  // Repetition 0 of every app x crawler cell.
  std::vector<std::size_t> cross_check_sample() const override {
    std::vector<std::size_t> sample;
    for (std::size_t i = 0; i < ops_.size(); i += protocol_.repetitions) {
      sample.push_back(i);
    }
    return sample;
  }

 private:
  static constexpr CrawlerKind kCrawlers[] = {
      CrawlerKind::kMak, CrawlerKind::kWebExplor, CrawlerKind::kQExplore};
  mh::Protocol protocol_;
  std::vector<const mak::apps::AppInfo*> apps_;
};

// --- population -----------------------------------------------------------
// Generated apps x {MAK, WebExplor, BFS} x 1 rep on the process tier,
// serially: one harness::run_orchestrated call and one worker process per
// run.
class Population final : public Workload {
 public:
  Population(std::uint64_t seed, bool tiny)
      : app_count_(tiny ? 3 : 20) {
    protocol_ = make_protocol(1, tiny ? 1 : 6, seed);
    orch_ = mh::orchestrator_from_env();
    if (orch_.workers != 1 || orch_.scratch_dir == "results/orchestrator") {
      throw std::runtime_error(
          "perfbench: MAK_WORKERS / MAK_ORCH_DIR are not pinned");
    }
    for (const auto& app :
         mak::apps::generator::population(kPopulationSeed, app_count_)) {
      const auto info = mak::apps::resolve_app(app.name);
      if (!info.has_value()) {
        throw std::runtime_error("perfbench: cannot resolve " + app.name);
      }
      begin_unit();
      for (const CrawlerKind kind : kCrawlers) {
        Op op;
        op.info = *info;
        op.kind = kind;
        op.config = protocol_.run;
        op.config.seed = mh::repetition_seed(protocol_.run, 0);
        op.reachable_lines = app.reachable_lines;
        ops_.push_back(std::move(op));
      }
    }
  }

  // Each run is its own run_orchestrated call with one repetition, so one
  // worker process runs at a time.
  std::size_t concurrency() const override { return 1; }

  // Generating the population and building every app; each app's declared
  // total must equal the generator's closed form.
  void setup() override {
    for (const auto& app :
         mak::apps::generator::population(kPopulationSeed, app_count_)) {
      const auto info = mak::apps::resolve_app(app.name);
      if (!info.has_value() ||
          info->factory()->code_model().total_lines() != app.total_lines) {
        throw std::runtime_error("perfbench: generator mismatch on " +
                                 app.name);
      }
    }
  }

  // One generated app under every crawler, one worker process per run.
  PassResult run_unit(std::size_t unit) override {
    PassResult out;
    auto& spawns = mak::support::MetricsRegistry::global().counter(
        mak::support::metric::kProcpoolSpawns);
    const std::uint64_t spawns_before = spawns.value();
    std::vector<mh::RunResult> results;
    const Clock::time_point start = Clock::now();
    const ScratchDir scratch(orch_.scratch_dir);
    mh::OrchestratorConfig orch = orch_;
    orch.scratch_dir = scratch.path();
    for (std::size_t i = unit_begin(unit); i < unit_end(unit); ++i) {
      const Clock::time_point op_start = Clock::now();
      auto runs =
          mh::run_orchestrated(ops_[i].info, ops_[i].kind, protocol_.run,
                               1, orch);
      out.session_ms.push_back(seconds_since(op_start) * 1e3);
      results.push_back(std::move(runs.front()));
    }
    out.wall_s = seconds_since(start);
    out.spawns = spawns.value() - spawns_before;

    for (std::size_t k = 0; k < results.size(); ++k) {
      const mh::RunResult& run = results[k];
      const Op& op = ops_[unit_begin(unit) + k];
      out.outputs.push_back(output_of(run, op.config.seed));
      out.steps += run.steps;
      out.busy_s += out.session_ms[k] / 1e3;
      out.coverage_sum += 100.0 * static_cast<double>(run.final_covered_lines) /
                          static_cast<double>(op.reachable_lines);
      ++out.coverage_cells;
      // Step hooks do not cross the process boundary: each of a worker's
      // steps is charged the run's mean, fork/exec and codecs included.
      if (run.steps > 0) {
        out.step_us.insert(out.step_us.end(), run.steps,
                           out.session_ms[k] * 1e3 /
                               static_cast<double>(run.steps));
      }
    }
    return out;
  }

  // One app in ten, every crawler.
  std::vector<std::size_t> cross_check_sample() const override {
    std::vector<std::size_t> sample;
    for (std::size_t i = 0; i < ops_.size(); i += 10) sample.push_back(i);
    return sample;
  }

 private:
  static constexpr CrawlerKind kCrawlers[] = {
      CrawlerKind::kMak, CrawlerKind::kWebExplor, CrawlerKind::kBfs};
  // One population for every workload seed, which seeds the crawls: the
  // cost of a population is set by its few largest apps, so populations
  // drawn per seed differ by more than any bound could absorb.
  static constexpr std::uint64_t kPopulationSeed = 1;
  std::size_t app_count_;
  mh::Protocol protocol_;
  mh::OrchestratorConfig orch_;
};

// --- serve_fleet ----------------------------------------------------------
// One SessionServer (thread tier, default ServerConfig) driven as a closed
// loop by `clients` logical clients on this thread, spread over 10 tenants.
// Each client opens a 60-virtual-second MAK session on a catalog app, waits
// for kFinished, closes it and opens the next, until `sessions` in total.
class ServeFleet final : public Workload {
 public:
  ServeFleet(std::uint64_t seed, bool tiny, std::string scratch)
      : clients_(tiny ? 20 : kClients),
        scratch_(std::move(scratch)) {
    const std::size_t sessions = tiny ? 40 : kSessions;
    mak::support::Rng draw(seed);
    begin_unit();
    const auto& catalog = mak::apps::app_catalog();
    for (std::size_t i = 0; i < sessions; ++i) {
      Op op;
      op.info = catalog[draw.next_below(catalog.size())];
      op.kind = CrawlerKind::kMak;
      op.config.budget = 60 * kMillisPerSecond;
      op.config.seed = draw.next();
      ops_.push_back(std::move(op));
    }
  }

  std::size_t concurrency() const override { return 1; }

  void setup() override {
    for (const auto& info : mak::apps::app_catalog()) {
      if (info.factory()->code_model().total_lines() == 0) {
        throw std::runtime_error("perfbench: empty app " + info.name);
      }
    }
    const mak::serve::SessionServer server(mak::serve::ServerConfig{},
                                           scratch_);
  }

  // The whole fleet: the closed loop cannot be split.
  PassResult run_unit(std::size_t) override {
    using mak::serve::SessionState;
    PassResult out;
    out.outputs.resize(ops_.size());
    const ScratchDir dir(scratch_);
    mak::serve::SessionServer server(mak::serve::ServerConfig{}, dir.path());

    struct Client {
      std::uint64_t id = 0;
      std::size_t op = 0;
      Clock::time_point opened{};
      bool active = false;
    };
    std::vector<Client> clients(clients_);
    std::size_t next_op = 0;
    const auto open_next = [&](std::size_t c) {
      Client& client = clients[c];
      client.active = false;
      if (next_op == ops_.size()) return;
      const std::size_t index = next_op++;
      const Op& op = ops_[index];
      mak::serve::OpenRequest request;
      request.tenant = "tenant-" + std::to_string(c % kTenants);
      request.app = op.info.name;
      request.crawler = std::string(mh::to_string(op.kind));
      request.config = op.config;
      request.config.step_hook = StepTimer::hook(index + 1);
      const Clock::time_point t0 = Clock::now();
      const auto outcome = server.open(request);
      const Clock::time_point t1 = Clock::now();
      out.serve.open_us.push_back(seconds_between(t0, t1) * 1e6);
      if (!outcome.admitted()) {
        out.problems.push_back(
            "session " + std::to_string(index) + " rejected: " +
            std::string(mak::serve::to_string(outcome.reject)));
        return;
      }
      client = {outcome.id, index, t0, true};
    };

    StepTimer::reset();
    const Clock::time_point start = Clock::now();
    for (std::size_t c = 0; c < clients.size(); ++c) open_next(c);
    std::size_t idle_ticks = 0;
    for (;;) {
      bool any_active = false;
      for (const Client& client : clients) any_active |= client.active;
      if (!any_active) break;
      const Clock::time_point t0 = Clock::now();
      const std::size_t stepped = server.tick();
      out.serve.tick_ms.push_back(seconds_since(t0) * 1e3);
      out.serve.tick_steps += stepped;
      bool progressed = stepped > 0;
      for (std::size_t c = 0; c < clients.size(); ++c) {
        Client& client = clients[c];
        if (!client.active ||
            server.state(client.id) != SessionState::kFinished) {
          continue;
        }
        const Clock::time_point finished = Clock::now();
        out.session_ms.push_back(seconds_between(client.opened, finished) *
                                 1e3);
        const auto result = server.close(client.id);
        out.serve.close_us.push_back(seconds_since(finished) * 1e6);
        if (result.has_value()) {
          out.outputs[client.op] =
              output_of(*result, ops_[client.op].config.seed);
        }
        progressed = true;
        open_next(c);
      }
      idle_ticks = progressed ? 0 : idle_ticks + 1;
      if (idle_ticks > 1000) break;  // nothing can run: the rest are lost
    }
    out.wall_s = seconds_since(start);
    std::vector<double> unused;
    StepTimer::collect(out.step_us, unused);
    for (const double ms : out.serve.tick_ms) out.busy_s += ms / 1e3;
    out.serve.retained_sessions = server.session_count();
    out.serve.evictions = server.stats().evicted;
    for (const Client& client : clients) {
      if (client.active) {
        out.problems.push_back(
            "session " + std::to_string(client.op) + " lost in state " +
            std::string(mak::serve::to_string(server.state(client.id))));
      }
    }

    for (const OpOutput& output : out.outputs) {
      out.steps += output.steps;
      if (output.total_lines > 0) {
        out.coverage_sum += 100.0 * static_cast<double>(output.covered) /
                            static_cast<double>(output.total_lines);
      }
      ++out.coverage_cells;
    }
    return out;
  }

  // Every 25th session.
  std::vector<std::size_t> cross_check_sample() const override {
    std::vector<std::size_t> sample;
    for (std::size_t i = 0; i < ops_.size(); i += 25) sample.push_back(i);
    return sample;
  }

 private:
  static constexpr std::size_t kClients = 1000;
  static constexpr std::size_t kSessions = 1250;
  static constexpr std::size_t kTenants = 10;
  std::size_t clients_;
  std::string scratch_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny,
                                        const std::string& scratch) {
  if (name == "table2") return std::make_unique<Table2>(seed, tiny);
  if (name == "population") return std::make_unique<Population>(seed, tiny);
  if (name == "serve_fleet") {
    return std::make_unique<ServeFleet>(seed, tiny, scratch);
  }
  return nullptr;
}

}  // namespace perfbench
