// Process-isolated experiment orchestrator (docs/robustness.md).
//
// run_orchestrated() executes an experiment's repetitions in worker
// processes (one fork/exec per repetition, via ProcPool), so crashes, OOM
// kills and hangs are contained to single repetitions. Failed attempts are
// retried with capped exponential backoff, resuming from the worker's own
// checkpoint so a retry never recomputes completed steps; every abnormal
// exit is archived as a replayable failure bundle; and a repetition whose
// retries are exhausted is carried through aggregation as a failed
// placeholder (RunResult::failed), never silently dropped. The results are
// byte-identical to run_repeated() for every repetition that completes —
// workers run the exact per-repetition seed the serial path would.
//
// Worker mode: any binary that calls run_orchestrated must dispatch
// `is_worker_invocation` at the very top of main() and hand control to
// `worker_main` — the orchestrator re-execs /proc/self/exe, so the worker
// IS this binary.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "harness/procpool.h"

namespace mak::harness {

struct OrchestratorConfig {
  std::size_t workers = 2;       // concurrent worker processes
  std::size_t max_attempts = 3;  // per repetition, including the first
  // Capped exponential backoff between a repetition's attempts (parent-side
  // wall time): base, base*2, base*4, ... up to the cap. No jitter — retry
  // timing must not perturb determinism.
  long backoff_base_ms = 200;
  long backoff_cap_ms = 5000;
  WorkerLimits limits;  // rlimits + wall deadline per attempt
  // Worker scratch (checkpoints, result files, stderr captures), laid out
  // as <scratch_dir>/<experiment digest>/rep-<k>/.
  std::string scratch_dir = "results/orchestrator";
  // Failure bundles land in <failure_dir>/<digest>-rep<k>-a<attempt>/.
  std::string failure_dir = "results/failures";
  // Chaos hook (CI): the FIRST attempt of repetition `first` SIGKILLs
  // itself after `second` crawl steps; retries run undisturbed.
  std::optional<std::pair<std::size_t, std::size_t>> chaos_kill;
};

// ------------------------------------------------------ worker argv codec
//
// Both worker children — --worker below and --serve-worker (src/serve) —
// receive their run as argv key/value pairs. The fields every run shares
// travel through this one codec; each mode adds and parses only its own.
struct WorkerRun {
  // apps::resolve_app name: a catalog app or a generated "gen-v1-..." one,
  // whose name encodes its full spec, so the child rebuilds the same app.
  std::string app;
  std::string crawler;  // crawler_kind_from_name name
  // Seed, budget, sample interval, think time, fill strategy, fault and
  // drift profiles; the mode's own fields fill the rest.
  RunConfig config;
  std::string out_path;          // where the child writes its envelope
  std::size_t kill_at_step = 0;  // chaos: SIGKILL itself after this step
};

// Child argv for ProcPool (argv[0] is added by the pool): `mode`, then the
// shared pairs. The caller appends its mode's own pairs.
std::vector<std::string> worker_argv(std::string_view mode,
                                     const WorkerRun& run);

// Parses argv[2..] (argv[1] is the mode flag) into `run`, handing keys
// outside the shared set to `extra`, which returns false to reject one.
// Installs the kill_at_step chaos hook as run.config.step_hook. Returns
// false, with `error` set, on an unknown key, an unparsable value or a
// missing app, crawler, out path or positive budget.
bool parse_worker_argv(
    int argc, char** argv, WorkerRun& run,
    const std::function<bool(const std::string& key, const char* value)>&
        extra,
    std::string& error);

// Environment-driven config: MAK_WORKERS, MAK_ORCH_ATTEMPTS, MAK_ORCH_DIR,
// MAK_FAILURE_DIR, MAK_ORCH_TIMEOUT_SEC (wall, per attempt),
// MAK_ORCH_CPU_SEC, MAK_ORCH_AS_MB, MAK_ORCH_BACKOFF_MS, and
// MAK_ORCH_CHAOS_KILL="rep=K,step=N".
OrchestratorConfig orchestrator_from_env();

// True when argv puts this process in worker mode (argv[1] == "--worker").
bool is_worker_invocation(int argc, char** argv);

// Worker entry point: run one repetition per the --worker argv protocol,
// write the result envelope, return the process exit code (kExitOk /
// kExitOom / kExitTransient). Call ONLY from main() after
// is_worker_invocation; it never returns to experiment code.
int worker_main(int argc, char** argv);

// Run `repetitions` worker processes and return one result per repetition,
// ordered by repetition index. Completed repetitions are bit-identical to
// run_repeated; exhausted ones come back as failed placeholders.
std::vector<RunResult> run_orchestrated(const apps::AppInfo& app_info,
                                        CrawlerKind kind,
                                        const RunConfig& config,
                                        std::size_t repetitions,
                                        const OrchestratorConfig& orch);

// Replay a failure bundle directory (mak_crawl --replay-bundle): rebuild
// the recorded worker config, resume from the bundled checkpoint, verify
// the run_digest matches, and print the reproduced final state. Returns a
// process exit code (0 = replayed, digest verified).
int replay_bundle(const std::string& bundle_dir);

}  // namespace mak::harness
