#include "harness/orchestrator.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <thread>

#include "harness/checkpoint.h"
#include "harness/json_report.h"
#include "support/env.h"
#include "support/fs.h"
#include "support/log.h"
#include "support/metric_names.h"
#include "support/metrics.h"
#include "support/snapshot.h"
#include "support/strings.h"

namespace mak::harness {

namespace sfs = mak::support::fs;
namespace snapshot = mak::support::snapshot;
using support::SnapshotError;
using support::json::Value;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::string_view kWorkerMagic = "mak-worker";
constexpr std::string_view kBundleMagic = "mak-bundle";
constexpr int kWorkerFormat = 1;
constexpr int kBundleFormat = 1;

// The per-repetition RunConfig a worker executes: the serial path's derived
// seed (so completed repetitions are bit-identical to run_repeated), the
// worker's private checkpoint directory, and no parent-process-only hooks.
RunConfig make_worker_config(const RunConfig& config, std::size_t rep,
                             const std::string& checkpoint_dir) {
  RunConfig worker = config;
  worker.seed = repetition_seed(config, rep);
  worker.trace = nullptr;
  worker.step_hook = nullptr;
  worker.crash_at_step = 0;
  worker.checkpoint.dir = checkpoint_dir;
  worker.checkpoint.resume = true;
  return worker;
}

std::string rep_scratch_dir(const OrchestratorConfig& orch,
                            const std::string& digest, std::size_t rep) {
  return orch.scratch_dir + "/" + digest + "/rep-" + std::to_string(rep);
}

// ----------------------------------------------------- worker result file
//
// A CRC envelope (support::snapshot::seal) like a checkpoint's, bound by
// "digest" (the worker's run digest) and "rep" to one (config, repetition)
// pair; the payload is the result_to_state dump.

std::string encode_worker_result(const RunResult& result,
                                 const std::string& digest, std::size_t rep) {
  support::json::Object binding;
  binding.emplace("digest", digest);
  binding.emplace("rep", static_cast<double>(rep));
  return snapshot::seal(kWorkerMagic, kWorkerFormat, std::move(binding),
                        support::json::dump(result_to_state(result)));
}

// Parse + validate; nullopt on any problem (the caller treats that as a
// transient worker failure and retries).
std::optional<RunResult> decode_worker_result(const std::string& path,
                                              const std::string& digest,
                                              std::size_t rep) {
  const auto contents = sfs::default_fs().read_file(path);
  if (!contents.has_value()) return std::nullopt;
  try {
    const Value outer =
        snapshot::unseal(*contents, kWorkerMagic, kWorkerFormat, path);
    if (snapshot::require_string(outer, "digest") != digest ||
        snapshot::require_index(outer, "rep") != rep) {
      return std::nullopt;
    }
    const auto state =
        support::json::parse(snapshot::require_string(outer, "payload"));
    if (!state.has_value()) return std::nullopt;
    return result_from_state(*state);
  } catch (const SnapshotError&) {
    return std::nullopt;
  }
}

// ------------------------------------------------------- failure bundles

std::string read_tail(sfs::Fs& disk, const std::string& path,
                      std::size_t max_bytes) {
  const auto contents = disk.read_file(path);
  if (!contents.has_value()) return "";
  if (contents->size() <= max_bytes) return *contents;
  return contents->substr(contents->size() - max_bytes);
}

// Newest valid checkpoint file name for `digest` in `dir` ("" when none).
// Validity matters: archiving a torn newest file would make the bundle
// unreplayable even though an older valid checkpoint exists.
std::string newest_valid_checkpoint(sfs::Fs& disk, const std::string& dir,
                                    const std::string& digest) {
  const std::string prefix = "ckpt-" + digest + "-";
  std::vector<std::pair<std::uint64_t, std::string>> candidates;
  for (const auto& name : disk.list_dir(dir)) {
    if (name.size() <= prefix.size() + 5 ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - 5, 5, ".json") != 0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - 5);
    char* end = nullptr;
    const std::uint64_t seq = std::strtoull(digits.c_str(), &end, 10);
    if (end == digits.c_str() || *end != '\0') continue;
    candidates.emplace_back(seq, name);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [seq, name] : candidates) {
    try {
      read_checkpoint_file(dir + "/" + name, digest);
      return name;
    } catch (const SnapshotError&) {
      // fall through to the next-older file
    }
  }
  return "";
}

struct BundleContext {
  const apps::AppInfo* app_info = nullptr;
  CrawlerKind kind = CrawlerKind::kMak;
  RunConfig worker_config;        // the config the worker ran
  std::string worker_digest;      // run_digest(app, kind, worker_config, 1)
  std::string experiment_digest;  // the parent experiment's digest
  std::size_t rep = 0;
  std::size_t attempt = 0;
  WorkerOutcome outcome;
  std::string checkpoint_dir;  // the worker's scratch checkpoint dir
  std::string stderr_path;
};

// Archive one abnormal exit as a replayable bundle:
//   <failure_dir>/<experiment digest>-rep<k>-a<attempt>/
//     bundle.json   manifest (config, digests, failure class, stderr tail)
//     ckpt-*.json   newest valid worker checkpoint (when one exists)
//     stderr.log    the attempt's full stderr capture
void archive_failure_bundle(const OrchestratorConfig& orch,
                            const BundleContext& ctx) {
  static support::Counter& bundles = support::MetricsRegistry::global().counter(
      support::metric::kOrchestratorFailureBundles);
  auto& disk = sfs::default_fs();
  const std::string dir = orch.failure_dir + "/" + ctx.experiment_digest +
                          "-rep" + std::to_string(ctx.rep) + "-a" +
                          std::to_string(ctx.attempt);
  if (!disk.create_directories(dir)) {
    MAK_LOG_WARN << "orchestrator: cannot create failure bundle dir " << dir;
    return;
  }

  const std::string checkpoint =
      newest_valid_checkpoint(disk, ctx.checkpoint_dir, ctx.worker_digest);
  if (!checkpoint.empty()) {
    if (const auto contents =
            disk.read_file(ctx.checkpoint_dir + "/" + checkpoint)) {
      sfs::write_file_atomic_verified(disk, dir + "/" + checkpoint, *contents);
    }
  }
  const std::string stderr_tail = read_tail(disk, ctx.stderr_path, 4096);
  if (!stderr_tail.empty()) {
    sfs::write_file_atomic_verified(disk, dir + "/stderr.log", stderr_tail);
  }

  const RunConfig& config = ctx.worker_config;
  support::json::Object manifest;
  manifest.emplace("magic", std::string(kBundleMagic));
  manifest.emplace("format", static_cast<double>(kBundleFormat));
  manifest.emplace("digest", ctx.worker_digest);
  manifest.emplace("experiment_digest", ctx.experiment_digest);
  manifest.emplace("rep", static_cast<double>(ctx.rep));
  manifest.emplace("attempt", static_cast<double>(ctx.attempt));
  manifest.emplace("failure_class",
                   std::string(to_string(ctx.outcome.failure)));
  manifest.emplace("exit_code", static_cast<double>(ctx.outcome.exit_code));
  manifest.emplace("term_signal",
                   static_cast<double>(ctx.outcome.term_signal));
  manifest.emplace("timed_out", Value(ctx.outcome.timed_out));
  manifest.emplace("app", ctx.app_info->name);
  manifest.emplace("crawler", std::string(to_string(ctx.kind)));
  manifest.emplace("seed", snapshot::u64_to_hex(config.seed));
  manifest.emplace("budget_ms", static_cast<double>(config.budget));
  manifest.emplace("sample_ms", static_cast<double>(config.sample_interval));
  manifest.emplace("think_ms", static_cast<double>(config.think_time));
  manifest.emplace("fill",
                   static_cast<double>(static_cast<int>(config.fill_strategy)));
  manifest.emplace("fault", config.fault.describe());
  manifest.emplace("drift", config.drift.describe());
  manifest.emplace("ckpt_interval_ms",
                   static_cast<double>(config.checkpoint.interval));
  manifest.emplace("ckpt_every_steps",
                   static_cast<double>(config.checkpoint.every_steps));
  manifest.emplace("ckpt_keep", static_cast<double>(config.checkpoint.keep));
  manifest.emplace("max_steps",
                   static_cast<double>(config.supervisor.max_steps));
  manifest.emplace("checkpoint", checkpoint);
  manifest.emplace("stderr_tail", stderr_tail);
  if (!sfs::write_file_atomic_verified(
          disk, dir + "/bundle.json",
          support::json::dump(Value(std::move(manifest))) + "\n")) {
    MAK_LOG_WARN << "orchestrator: cannot write failure bundle manifest in "
                 << dir;
    return;
  }
  bundles.add();
  MAK_LOG_WARN << "orchestrator: archived failure bundle " << dir << " ("
               << to_string(ctx.outcome.failure) << ")";
}

}  // namespace

// ------------------------------------------------------ worker argv codec

std::vector<std::string> worker_argv(std::string_view mode,
                                     const WorkerRun& run) {
  std::vector<std::string> args{std::string(mode)};
  const auto add = [&args](const char* key, std::string value) {
    args.emplace_back(key);
    args.push_back(std::move(value));
  };
  const RunConfig& config = run.config;
  add("--app", run.app);
  add("--crawler", run.crawler);
  add("--seed", snapshot::u64_to_hex(config.seed));
  add("--budget-ms", std::to_string(config.budget));
  add("--sample-ms", std::to_string(config.sample_interval));
  add("--think-ms", std::to_string(config.think_time));
  add("--fill", std::to_string(static_cast<int>(config.fill_strategy)));
  const std::string fault = config.fault.describe();
  if (!fault.empty()) add("--fault", fault);
  // describe() canonically returns "off" for a disabled profile; only an
  // active one needs to travel to the worker.
  if (config.drift.enabled()) add("--drift", config.drift.describe());
  add("--out", run.out_path);
  if (run.kill_at_step > 0) {
    add("--kill-at-step", std::to_string(run.kill_at_step));
  }
  return args;
}

bool parse_worker_argv(
    int argc, char** argv, WorkerRun& run,
    const std::function<bool(const std::string& key, const char* value)>&
        extra,
    std::string& error) {
  RunConfig& config = run.config;
  config.budget = 0;  // required: the child never falls back to a default
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    const long number = std::strtol(value, nullptr, 10);
    if (key == "--app") {
      run.app = value;
    } else if (key == "--crawler") {
      run.crawler = value;
    } else if (key == "--seed") {
      try {
        config.seed = snapshot::hex_to_u64(value);
      } catch (const SnapshotError&) {
        error = "bad --seed";
        return false;
      }
    } else if (key == "--budget-ms") {
      config.budget = number;
    } else if (key == "--sample-ms") {
      if (number > 0) config.sample_interval = number;
    } else if (key == "--think-ms") {
      if (number > 0) config.think_time = number;
    } else if (key == "--fill") {
      config.fill_strategy = static_cast<core::FormFillStrategy>(number);
    } else if (key == "--fault") {
      const auto fault = httpsim::FaultProfile::parse(value);
      if (!fault.has_value()) {
        error = "unparsable fault spec";
        return false;
      }
      config.fault = *fault;
    } else if (key == "--drift") {
      const auto drift = webapp::DriftProfile::parse(value);
      if (!drift.has_value()) {
        error = "unparsable drift spec";
        return false;
      }
      config.drift = *drift;
    } else if (key == "--out") {
      run.out_path = value;
    } else if (key == "--kill-at-step") {
      run.kill_at_step =
          static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
    } else if (!extra(key, value)) {
      error = "unknown argument " + key;
      return false;
    }
  }
  if (run.app.empty() || run.crawler.empty() || run.out_path.empty() ||
      config.budget <= 0) {
    error = "bad invocation";
    return false;
  }
  if (run.kill_at_step > 0) {
    // Chaos hook: die the way an external `kill -9` (or the OOM killer)
    // would — no cleanup, no final checkpoint, no envelope.
    config.step_hook = [kill_at = run.kill_at_step](std::size_t step) {
      if (step == kill_at) ::kill(::getpid(), SIGKILL);
    };
  }
  return true;
}

// ------------------------------------------------------------ worker mode

bool is_worker_invocation(int argc, char** argv) {
  return argc >= 2 && std::strcmp(argv[1], "--worker") == 0;
}

namespace {

int worker_run(int argc, char** argv) {
  WorkerRun run;
  RunConfig& config = run.config;
  std::size_t rep = 0;
  const auto extra = [&](const std::string& key, const char* value) {
    const long number = std::strtol(value, nullptr, 10);
    const auto count =
        static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
    if (key == "--rep") {
      rep = count;
    } else if (key == "--ckpt-dir") {
      config.checkpoint.dir = value;
    } else if (key == "--ckpt-interval-ms") {
      if (number > 0) config.checkpoint.interval = number;
    } else if (key == "--ckpt-every-steps") {
      config.checkpoint.every_steps = count;
    } else if (key == "--ckpt-keep") {
      config.checkpoint.keep = count;
    } else if (key == "--heartbeat-ms") {
      config.supervisor.heartbeat_ms = number;
    } else if (key == "--wall-limit-ms") {
      config.supervisor.wall_limit_ms = number;
    } else if (key == "--max-steps") {
      config.supervisor.max_steps = count;
    } else {
      return false;
    }
    return true;
  };
  std::string error;
  if (!parse_worker_argv(argc, argv, run, extra, error) ||
      !config.checkpoint.enabled()) {
    std::fprintf(stderr, "worker: %s\n",
                 error.empty() ? "bad invocation" : error.c_str());
    return kExitTransient;
  }
  const auto info = apps::resolve_app(run.app);
  const auto kind = crawler_kind_from_name(run.crawler);
  if (!info.has_value() || !kind.has_value()) {
    std::fprintf(stderr, "worker: unknown app or crawler\n");
    return kExitTransient;
  }

  const RunResult result = run_resumable(*info, *kind, config);
  const std::string digest = run_digest(*info, *kind, config, 1);
  if (!sfs::write_file_atomic_verified(
          sfs::default_fs(), run.out_path,
          encode_worker_result(result, digest, rep))) {
    std::fprintf(stderr, "worker: cannot write result file %s\n",
                 run.out_path.c_str());
    return kExitTransient;
  }
  return kExitOk;
}

}  // namespace

int worker_main(int argc, char** argv) {
  try {
    return worker_run(argc, argv);
  } catch (const std::bad_alloc&) {
    // RLIMIT_AS surfaces as bad_alloc; report it as the OOM it is.
    return kExitOom;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "worker: %s\n", error.what());
    return kExitTransient;
  }
}

// ------------------------------------------------------------ parent side

OrchestratorConfig orchestrator_from_env() {
  // Validated parsing (support/env.h): a daemon-grade config surface must
  // fail fast on a malformed knob instead of silently running defaults.
  // Zero means "disabled" for the limit knobs, so their ranges start at 0.
  namespace env = support::env;
  OrchestratorConfig orch;
  orch.workers = env::require_count("MAK_WORKERS", 2, 4096);
  orch.max_attempts = env::require_count("MAK_ORCH_ATTEMPTS", 3, 100);
  orch.backoff_base_ms = static_cast<long>(
      env::require_int("MAK_ORCH_BACKOFF_MS", 200, 0, 3600000));
  orch.limits.wall_timeout_ms =
      static_cast<long>(env::require_int("MAK_ORCH_TIMEOUT_SEC", 0, 0, 86400)) *
      1000;
  orch.limits.cpu_seconds =
      static_cast<long>(env::require_int("MAK_ORCH_CPU_SEC", 0, 0, 86400));
  orch.limits.address_space_mb = static_cast<long>(
      env::require_int("MAK_ORCH_AS_MB", 0, 0, 1048576));
  if (const char* dir = std::getenv("MAK_ORCH_DIR");
      dir != nullptr && *dir != '\0') {
    orch.scratch_dir = dir;
  }
  if (const char* dir = std::getenv("MAK_FAILURE_DIR");
      dir != nullptr && *dir != '\0') {
    orch.failure_dir = dir;
  }
  if (const char* spec = std::getenv("MAK_ORCH_CHAOS_KILL");
      spec != nullptr && *spec != '\0') {
    // "rep=K,step=N"
    std::size_t rep = 0, step = 0;
    bool have_rep = false, have_step = false;
    for (std::string_view token : support::split(spec, ',')) {
      const std::string item(support::trim(token));
      const auto eq = item.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = item.substr(0, eq);
      const auto value = std::strtoull(item.c_str() + eq + 1, nullptr, 10);
      if (key == "rep") {
        rep = static_cast<std::size_t>(value);
        have_rep = true;
      } else if (key == "step") {
        step = static_cast<std::size_t>(value);
        have_step = true;
      }
    }
    if (have_rep && have_step && step > 0) {
      orch.chaos_kill = {rep, step};
    } else {
      MAK_LOG_WARN << "orchestrator: ignoring unparsable MAK_ORCH_CHAOS_KILL: "
                   << spec;
    }
  }
  return orch;
}

namespace {

// Per-repetition scheduling state for the retry loop.
struct RepState {
  std::size_t attempts = 0;
  bool done = false;
  bool launched = false;  // currently running
  FailureClass last_failure = FailureClass::kNone;
  Clock::time_point eligible = Clock::time_point::min();
  std::optional<RunResult> result;
};

std::vector<std::string> repetition_argv(const apps::AppInfo& app_info,
                                         CrawlerKind kind,
                                         const RunConfig& worker_config,
                                         std::size_t rep,
                                         const std::string& out_path,
                                         std::size_t kill_at_step) {
  WorkerRun run;
  run.app = app_info.name;
  run.crawler = std::string(to_string(kind));
  run.config = worker_config;
  run.out_path = out_path;
  run.kill_at_step = kill_at_step;
  std::vector<std::string> args = worker_argv("--worker", run);
  const auto add = [&args](const char* key, std::string value) {
    args.emplace_back(key);
    args.push_back(std::move(value));
  };
  add("--rep", std::to_string(rep));
  add("--ckpt-dir", worker_config.checkpoint.dir);
  add("--ckpt-interval-ms", std::to_string(worker_config.checkpoint.interval));
  add("--ckpt-every-steps",
      std::to_string(worker_config.checkpoint.every_steps));
  add("--ckpt-keep", std::to_string(worker_config.checkpoint.keep));
  const SupervisorConfig& supervisor = worker_config.supervisor;
  if (supervisor.heartbeat_ms > 0) {
    add("--heartbeat-ms", std::to_string(supervisor.heartbeat_ms));
  }
  if (supervisor.wall_limit_ms > 0) {
    add("--wall-limit-ms", std::to_string(supervisor.wall_limit_ms));
  }
  if (supervisor.max_steps > 0) {
    add("--max-steps", std::to_string(supervisor.max_steps));
  }
  return args;
}

RunResult failed_placeholder(const apps::AppInfo& app_info, CrawlerKind kind,
                             const RepState& state) {
  RunResult placeholder;
  placeholder.app = app_info.name;
  placeholder.crawler = std::string(to_string(kind));
  placeholder.platform = app_info.platform;
  placeholder.failed = true;
  placeholder.failure_class = std::string(to_string(state.last_failure));
  placeholder.attempts = state.attempts;
  return placeholder;
}

}  // namespace

std::vector<RunResult> run_orchestrated(const apps::AppInfo& app_info,
                                        CrawlerKind kind,
                                        const RunConfig& config,
                                        std::size_t repetitions,
                                        const OrchestratorConfig& orch) {
  if (repetitions == 0) return {};
  auto& registry = support::MetricsRegistry::global();
  static support::Counter& failures =
      registry.counter(support::metric::kProcpoolFailures);
  static support::Counter& retries =
      registry.counter(support::metric::kProcpoolRetries);
  static support::Counter& failed_reps =
      registry.counter(support::metric::kOrchestratorFailedRepetitions);

  auto& disk = sfs::default_fs();
  const std::string digest = run_digest(app_info, kind, config, repetitions);
  const std::size_t capacity = std::max<std::size_t>(orch.workers, 1);
  const std::size_t max_attempts = std::max<std::size_t>(orch.max_attempts, 1);

  std::vector<RepState> reps(repetitions);
  std::vector<RunConfig> configs;
  std::vector<std::string> out_paths;
  std::vector<std::string> digests;
  configs.reserve(repetitions);
  out_paths.reserve(repetitions);
  digests.reserve(repetitions);
  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    const std::string scratch = rep_scratch_dir(orch, digest, rep);
    disk.create_directories(scratch);
    configs.push_back(make_worker_config(config, rep, scratch));
    out_paths.push_back(scratch + "/result.json");
    digests.push_back(run_digest(app_info, kind, configs.back(), 1));
  }

  ProcPool pool("/proc/self/exe");
  std::vector<std::size_t> slot_to_rep;
  std::size_t done = 0;

  const auto backoff = [&orch](std::size_t attempt) {
    long delay = orch.backoff_base_ms;
    for (std::size_t i = 1; i < attempt && delay < orch.backoff_cap_ms; ++i) {
      delay *= 2;
    }
    return std::chrono::milliseconds(
        std::min(std::max(delay, 0L), orch.backoff_cap_ms));
  };

  const auto launch = [&](std::size_t rep) {
    RepState& state = reps[rep];
    ++state.attempts;
    // The chaos kill only arms the first attempt: the retry must recover.
    const std::size_t kill_at_step =
        orch.chaos_kill.has_value() && orch.chaos_kill->first == rep &&
                state.attempts == 1
            ? orch.chaos_kill->second
            : 0;
    WorkerSpec spec;
    spec.args = repetition_argv(app_info, kind, configs[rep], rep,
                                out_paths[rep], kill_at_step);
    spec.stderr_path = rep_scratch_dir(orch, digest, rep) + "/stderr-a" +
                       std::to_string(state.attempts) + ".log";
    const int slot = pool.spawn(spec, orch.limits);
    if (slot < 0) {
      // fork failure: same retry path as a worker that died instantly
      --state.attempts;
      state.eligible = Clock::now() + std::chrono::milliseconds(50);
      return;
    }
    state.launched = true;
    if (static_cast<std::size_t>(slot) >= slot_to_rep.size()) {
      slot_to_rep.resize(static_cast<std::size_t>(slot) + 1);
    }
    slot_to_rep[static_cast<std::size_t>(slot)] = rep;
  };

  while (done < repetitions) {
    // Launch every eligible repetition while capacity lasts.
    bool pending_backoff = false;
    for (std::size_t rep = 0;
         rep < repetitions && pool.running() < capacity; ++rep) {
      RepState& state = reps[rep];
      if (state.done || state.launched) continue;
      if (Clock::now() < state.eligible) {
        pending_backoff = true;
        continue;
      }
      launch(rep);
    }

    // Block for an exit only when no launch can become possible first.
    const bool can_block = !pending_backoff || pool.running() >= capacity;
    const auto exits = pool.poll(pool.running() > 0 && can_block);
    if (exits.empty() && pool.running() == 0) {
      // Everything alive has been reaped and nothing was launchable: only
      // backoff timers remain. Sleep a tick.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    for (const auto& exit : exits) {
      const std::size_t rep = slot_to_rep[static_cast<std::size_t>(exit.slot)];
      RepState& state = reps[rep];
      state.launched = false;

      FailureClass failure = exit.outcome.failure;
      if (failure == FailureClass::kNone) {
        auto result = decode_worker_result(out_paths[rep], digests[rep], rep);
        if (result.has_value()) {
          state.done = true;
          state.result = std::move(result);
          ++done;
          continue;
        }
        // Clean exit but no valid result file: disk fault ate it. Retry.
        failure = FailureClass::kTransient;
      }

      failures.add();
      state.last_failure = failure;
      BundleContext ctx;
      ctx.app_info = &app_info;
      ctx.kind = kind;
      ctx.worker_config = configs[rep];
      ctx.worker_digest = digests[rep];
      ctx.experiment_digest = digest;
      ctx.rep = rep;
      ctx.attempt = state.attempts;
      ctx.outcome = exit.outcome;
      ctx.outcome.failure = failure;
      ctx.checkpoint_dir = configs[rep].checkpoint.dir;
      ctx.stderr_path = rep_scratch_dir(orch, digest, rep) + "/stderr-a" +
                        std::to_string(state.attempts) + ".log";
      archive_failure_bundle(orch, ctx);

      if (state.attempts >= max_attempts) {
        state.done = true;
        ++done;
        failed_reps.add();
        MAK_LOG_WARN << "orchestrator: repetition " << rep << " failed ("
                     << to_string(failure) << ") after " << state.attempts
                     << " attempts";
        continue;
      }
      retries.add();
      state.eligible = Clock::now() + backoff(state.attempts);
      MAK_LOG_WARN << "orchestrator: repetition " << rep << " "
                   << to_string(failure) << " on attempt " << state.attempts
                   << ", retrying (resume from its checkpoint)";
    }
  }

  std::vector<RunResult> results;
  results.reserve(repetitions);
  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    results.push_back(reps[rep].result.has_value()
                          ? std::move(*reps[rep].result)
                          : failed_placeholder(app_info, kind, reps[rep]));
  }
  return results;
}

// ----------------------------------------------------------------- replay

int replay_bundle(const std::string& bundle_dir) {
  auto& disk = sfs::default_fs();
  const std::string manifest_path = bundle_dir + "/bundle.json";
  const auto contents = disk.read_file(manifest_path);
  if (!contents.has_value()) {
    std::fprintf(stderr, "replay: cannot read %s\n", manifest_path.c_str());
    return 1;
  }
  try {
    const auto manifest = support::json::parse(*contents);
    if (!manifest.has_value() || !manifest->is_object() ||
        snapshot::require_string(*manifest, "magic") != kBundleMagic ||
        snapshot::require_int(*manifest, "format") != kBundleFormat) {
      std::fprintf(stderr, "replay: %s is not a failure bundle manifest\n",
                   manifest_path.c_str());
      return 1;
    }
    const std::string& app_name = snapshot::require_string(*manifest, "app");
    const std::string& crawler_name =
        snapshot::require_string(*manifest, "crawler");
    const auto info = apps::resolve_app(app_name);
    const auto kind = crawler_kind_from_name(crawler_name);
    if (!info.has_value() || !kind.has_value()) {
      std::fprintf(stderr, "replay: unknown app or crawler in manifest\n");
      return 1;
    }

    RunConfig config;
    config.seed = snapshot::require_u64_hex(*manifest, "seed");
    config.budget = static_cast<support::VirtualMillis>(
        snapshot::require_index(*manifest, "budget_ms"));
    config.sample_interval = static_cast<support::VirtualMillis>(
        snapshot::require_index(*manifest, "sample_ms"));
    config.think_time = static_cast<support::VirtualMillis>(
        snapshot::require_index(*manifest, "think_ms"));
    config.fill_strategy = static_cast<core::FormFillStrategy>(
        snapshot::require_int(*manifest, "fill"));
    const std::string& fault_spec =
        snapshot::require_string(*manifest, "fault");
    if (!fault_spec.empty()) {
      const auto fault = httpsim::FaultProfile::parse(fault_spec);
      if (!fault.has_value()) {
        std::fprintf(stderr, "replay: unparsable fault spec in manifest\n");
        return 1;
      }
      config.fault = *fault;
    }
    // Optional: bundles written before the drift layer existed lack the key.
    if (const Value* drift_value = manifest->find("drift");
        drift_value != nullptr && drift_value->is_string()) {
      const auto drift = webapp::DriftProfile::parse(drift_value->as_string());
      if (!drift.has_value()) {
        std::fprintf(stderr, "replay: unparsable drift spec in manifest\n");
        return 1;
      }
      config.drift = *drift;
    }
    config.checkpoint.dir = bundle_dir + "/replay";
    config.checkpoint.interval = static_cast<support::VirtualMillis>(
        snapshot::require_index(*manifest, "ckpt_interval_ms"));
    config.checkpoint.every_steps = static_cast<std::size_t>(
        snapshot::require_index(*manifest, "ckpt_every_steps"));
    config.checkpoint.keep = static_cast<std::size_t>(
        snapshot::require_index(*manifest, "ckpt_keep"));
    config.checkpoint.resume = true;
    config.supervisor.max_steps = static_cast<std::size_t>(
        snapshot::require_index(*manifest, "max_steps"));

    const std::string& recorded_digest =
        snapshot::require_string(*manifest, "digest");
    const std::string recomputed = run_digest(*info, *kind, config, 1);
    if (recomputed != recorded_digest) {
      std::fprintf(stderr,
                   "replay: digest mismatch (manifest %s, recomputed %s) — "
                   "bundle and binary disagree about the configuration\n",
                   recorded_digest.c_str(), recomputed.c_str());
      return 1;
    }

    // Stage the bundled checkpoint into the replay directory; resume picks
    // it up exactly as the crashed worker's retry would have.
    disk.create_directories(config.checkpoint.dir);
    const std::string& checkpoint =
        snapshot::require_string(*manifest, "checkpoint");
    if (!checkpoint.empty() &&
        !disk.exists(config.checkpoint.dir + "/" + checkpoint)) {
      const auto bundled = disk.read_file(bundle_dir + "/" + checkpoint);
      if (!bundled.has_value()) {
        std::fprintf(stderr, "replay: bundle names checkpoint %s but the "
                             "file is missing\n",
                     checkpoint.c_str());
        return 1;
      }
      sfs::write_file_atomic_verified(
          disk, config.checkpoint.dir + "/" + checkpoint, *bundled);
    }

    std::printf("replay: bundle %s\n", bundle_dir.c_str());
    std::printf(
        "replay: app=%s crawler=%s rep=%llu attempt=%llu failure=%s\n",
        app_name.c_str(), crawler_name.c_str(),
        static_cast<unsigned long long>(
            snapshot::require_index(*manifest, "rep")),
        static_cast<unsigned long long>(
            snapshot::require_index(*manifest, "attempt")),
        snapshot::require_string(*manifest, "failure_class").c_str());
    const RunResult result = run_resumable(*info, *kind, config);
    std::printf("replay: digest=%s\n", recomputed.c_str());
    std::printf("replay: steps=%zu covered_lines=%zu interactions=%zu\n",
                result.steps, result.final_covered_lines,
                result.interactions);
    std::printf("replay: result=%s\n", run_to_json(result).c_str());
    return 0;
  } catch (const SnapshotError& error) {
    std::fprintf(stderr, "replay: corrupt manifest: %s\n", error.what());
    return 1;
  }
}

}  // namespace mak::harness
