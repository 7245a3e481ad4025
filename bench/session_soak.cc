// Session-server soak: many concurrent tenants, fairness, overload, chaos.
//
// Opens N logical crawl sessions (default 10000) spread over T tenants,
// multiplexes them through one serve::SessionServer, and measures:
//
//   * capacity    — every session runs to budget exhaustion; zero lost
//   * fairness    — Jain's index over per-tenant steps at a mid-flight
//                   snapshot (completion would trivially report 1.0)
//   * shedding    — a second server is offered 2x its queue capacity; the
//                   overflow must come back as typed rejections, no aborts
//
// Determinism: per-session output lines (sorted by session id) depend only
// on seeds and profiles, never on scheduling wall time. CI runs the soak
// twice — once with process-tier chaos kills, once without — and diffs the
// non-'#' lines byte-for-byte (docs/robustness.md). Wall-clock figures are
// emitted as '#' comment lines only.
//
//   session_soak [--sessions N] [--tenants T] [--budget-ms MS]
//                [--process-every N] [--kill-chaos] [--fairness-ticks K]
//
// MAK_FAULT_PROFILE / MAK_DRIFT apply to every session; MAK_SERVE_*
// configures the server (admission.h). The JSON artifact is written only
// where MAK_BENCH_JSON names a file (the committed baseline,
// results/BENCH_sessions.json, is re-recorded by naming it explicitly) and
// carries only deterministic entries so tools/metrics_diff can gate it.
// Process-tier state files live in a fresh directory under the system temp
// dir (TMPDIR), removed at exit, so concurrent soaks never share them.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/catalog.h"
#include "harness/bench_json.h"
#include "harness/experiment.h"
#include "httpsim/fault.h"
#include "serve/server.h"
#include "serve/worker.h"
#include "support/fs.h"
#include "webapp/drift.h"

namespace {

using mak::serve::IsolationTier;
using mak::serve::OpenRequest;
using mak::serve::Reject;
using mak::serve::SessionServer;
using mak::serve::SessionState;

struct Options {
  std::size_t sessions = 10000;
  std::size_t tenants = 20;
  long budget_ms = 60000;
  std::size_t process_every = 0;  // 0 = all thread-tier; else every Nth
  bool kill_chaos = false;        // SIGKILL each process-tier worker once
  std::size_t fairness_ticks = 40;
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "session_soak: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--sessions") {
      opt.sessions = std::strtoull(next("--sessions"), nullptr, 10);
    } else if (arg == "--tenants") {
      opt.tenants = std::strtoull(next("--tenants"), nullptr, 10);
    } else if (arg == "--budget-ms") {
      opt.budget_ms = std::strtol(next("--budget-ms"), nullptr, 10);
    } else if (arg == "--process-every") {
      opt.process_every =
          std::strtoull(next("--process-every"), nullptr, 10);
    } else if (arg == "--kill-chaos") {
      opt.kill_chaos = true;
    } else if (arg == "--fairness-ticks") {
      opt.fairness_ticks =
          std::strtoull(next("--fairness-ticks"), nullptr, 10);
    } else {
      std::fprintf(stderr, "session_soak: unknown argument %s\n",
                   arg.c_str());
      return false;
    }
  }
  return opt.sessions > 0 && opt.tenants > 0 && opt.budget_ms > 0;
}

OpenRequest make_request(const Options& opt, std::size_t index) {
  const auto& catalog = mak::apps::app_catalog();
  OpenRequest request;
  request.tenant = "tenant-" + std::to_string(index % opt.tenants);
  request.app = catalog[index % catalog.size()].name;
  request.crawler = "MAK";
  request.config.budget =
      static_cast<mak::support::VirtualMillis>(opt.budget_ms);
  request.config.seed = 0x5eedULL + index * 7919ULL;
  if (const auto fault = mak::httpsim::FaultProfile::from_env()) {
    request.config.fault = *fault;
  }
  if (const auto drift = mak::webapp::DriftProfile::from_env()) {
    request.config.drift = *drift;
  }
  if (opt.process_every > 0 && index % opt.process_every == 0) {
    request.tier = IsolationTier::kProcess;
    if (opt.kill_chaos) {
      // One SIGKILL per chaos session, mid-batch: the worker dies like an
      // OOM-killed process and the server retries from the last good state.
      request.kill_at_step = 5 + index % 20;
    }
  }
  return request;
}

}  // namespace

int main(int argc, char** argv) {
  // Process-tier workers re-exec this binary; dispatch them before anything
  // else, exactly like the orchestrator's worker mode.
  if (mak::serve::is_serve_worker_invocation(argc, argv)) {
    return mak::serve::serve_worker_main(argc, argv);
  }
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  namespace serve = mak::serve;
  namespace harness = mak::harness;

  serve::ServerConfig config = serve::server_from_env();
  if (config.max_queue < opt.sessions) config.max_queue = opt.sessions;
  // Outlives the server, which drains into it.
  const mak::support::fs::TempDir scratch("mak-session-soak");
  SessionServer server(config, scratch.path());

  // ---- open phase ------------------------------------------------------
  std::vector<std::uint64_t> ids;
  ids.reserve(opt.sessions);
  std::size_t open_rejected = 0;
  for (std::size_t i = 0; i < opt.sessions; ++i) {
    const auto outcome = server.open(make_request(opt, i));
    if (outcome.admitted()) {
      ids.push_back(outcome.id);
    } else {
      ++open_rejected;
    }
  }

  // ---- fairness snapshot mid-flight ------------------------------------
  const auto wall_start = std::chrono::steady_clock::now();
  std::size_t warmup_steps = 0;
  for (std::size_t i = 0; i < opt.fairness_ticks; ++i) {
    warmup_steps += server.tick();
  }
  std::vector<double> tenant_steps;
  tenant_steps.reserve(opt.tenants);
  for (std::size_t t = 0; t < opt.tenants; ++t) {
    tenant_steps.push_back(static_cast<double>(
        server.tenant_stats("tenant-" + std::to_string(t)).steps));
  }
  const double jain = SessionServer::jain_index(tenant_steps);

  // ---- run to completion -----------------------------------------------
  const std::size_t total_steps = warmup_steps + server.run_until_idle();
  const double wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  // ---- account every session -------------------------------------------
  std::size_t finished = 0;
  std::size_t lost = 0;
  for (const std::uint64_t id : ids) {
    if (server.state(id) == SessionState::kFinished) {
      ++finished;
    } else {
      ++lost;  // anything not finished after run_until_idle is a loss
    }
  }
  for (const std::uint64_t id : ids) {
    const harness::RunResult* result = server.result(id);
    std::printf("session=%llu steps=%zu covered=%zu\n",
                static_cast<unsigned long long>(id),
                result != nullptr ? result->steps : 0,
                result != nullptr ? result->final_covered_lines : 0);
  }

  // ---- overload phase: 2x queue capacity, typed shedding ---------------
  serve::ServerConfig small = config;
  small.max_queue = 64;
  small.max_resident = 16;
  SessionServer overload(small, "");
  std::size_t shed_queue_full = 0;
  std::size_t shed_other = 0;
  for (std::size_t i = 0; i < 2 * small.max_queue; ++i) {
    // Overload probes admission control, not isolation: thread tier
    // keeps the shed breakdown invariant under --process-every.
    auto request = make_request(opt, i);
    request.tier = serve::IsolationTier::kThread;
    request.kill_at_step = 0;
    const auto outcome = overload.open(request);
    if (outcome.reject == Reject::kQueueFull) {
      ++shed_queue_full;
    } else if (!outcome.admitted()) {
      ++shed_other;
    }
  }

  std::printf("# sessions=%zu tenants=%zu finished=%zu lost=%zu\n",
              opt.sessions, opt.tenants, finished, lost);
  std::printf("# steps=%zu wall_s=%.2f steps_per_s=%.0f\n", total_steps,
              wall_s, wall_s > 0 ? static_cast<double>(total_steps) / wall_s
                                 : 0.0);
  std::printf("# jain_index=%.4f (over %zu tenants after %zu ticks)\n", jain,
              opt.tenants, opt.fairness_ticks);
  std::printf("# overload: offered=%zu shed_queue_full=%zu shed_other=%zu\n",
              2 * small.max_queue, shed_queue_full, shed_other);
  std::printf("# worker: dispatches=%zu failures=%zu retries=%zu\n",
              server.stats().worker_dispatches,
              server.stats().worker_failures, server.stats().worker_retries);

  std::vector<harness::BenchEntry> entries;
  entries.push_back({"sessions_opened", static_cast<double>(ids.size()),
                     "sessions", true});
  entries.push_back(
      {"sessions_finished", static_cast<double>(finished), "sessions", true});
  entries.push_back(
      {"sessions_lost", static_cast<double>(lost), "sessions", false});
  entries.push_back({"open_rejected", static_cast<double>(open_rejected),
                     "sessions", false});
  entries.push_back({"jain_index_x1000", jain * 1000.0, "milli", true});
  entries.push_back(
      {"total_steps", static_cast<double>(total_steps), "steps", true});
  entries.push_back({"overload_shed_typed",
                     static_cast<double>(shed_queue_full), "rejections",
                     true});
  harness::write_bench_json_file("MAK_BENCH_JSON", "", "session_soak",
                                 entries, nullptr);
  return lost == 0 ? 0 : 1;
}
