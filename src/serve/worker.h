// Process-tier execution: one session batch in a forked worker.
//
// Untrusted or chaos-prone tenants run their batches out-of-process so a
// crash, OOM kill, or hang takes down a disposable child, never the server.
// The protocol is state-in → step → state-out:
//
//   parent                                child (--serve-worker)
//   ------                                ----------------------
//   save_state() → state file             construct harness::CrawlRun
//   spawn /proc/self/exe --serve-worker   load_state(state file)
//   poll via harness::ProcPool            step_batch(N)
//   decode envelope, load_state()         write envelope (state or result)
//
// The parent always holds the last good state, so any failure class is
// retryable from that state — and because sessions are deterministic, the
// retry reproduces the lost batch byte-for-byte. A parent-initiated cancel
// (stall recovery, drain) classifies as FailureClass::kCancelled and leaves
// the session suspended on its last good state: deliberate shutdown never
// loses a session.
//
// The argv shares the orchestrator worker's codec (harness::worker_argv)
// for every run field. The result is a CRC envelope
// (support::snapshot::seal) bound by session id, base step and kind:
//   {"magic":"mak-serve-worker","format":1,"session":<id>,"base_step":N,
//    "kind":"state"|"result","crc32":"<8-hex>","payload":"<json dump>"}
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apps/catalog.h"
#include "harness/experiment.h"
#include "harness/orchestrator.h"
#include "support/json.h"

namespace mak::serve {

// One dispatch: run `steps` crawl steps of one session in a child process.
struct WorkerBatch {
  harness::WorkerRun run;  // app, crawler, config, out path, kill-at-step
  std::uint64_t session_id = 0;
  std::size_t base_step = 0;      // session's step count going in
  std::string state_path;         // saved state to resume from ("" = fresh)
  std::size_t steps = 0;          // batch size
  // Chaos hook (tests/CI only): hang at this absolute step index.
  std::size_t hang_at_step = 0;
};

// What a successful batch produced: either the session's next suspended
// state (in-flight) or its final result (budget exhausted).
struct WorkerOutcome {
  bool finished = false;
  std::size_t steps_run = 0;
  std::optional<support::json::Value> state;    // when !finished
  std::optional<harness::RunResult> result;     // when finished
};

// Child argv for ProcPool (argv[0], the exe path, is added by the pool).
std::vector<std::string> serve_worker_argv(const WorkerBatch& batch);

// Encode/decode the result envelope. decode returns nullopt on any
// corruption or identity mismatch — the caller retries the batch.
std::string encode_serve_outcome(const WorkerOutcome& outcome,
                                 std::uint64_t session_id,
                                 std::size_t base_step);
std::optional<WorkerOutcome> decode_serve_outcome(const std::string& path,
                                                  std::uint64_t session_id,
                                                  std::size_t base_step);

// True when argv names a serve-worker invocation (argv[1] is
// "--serve-worker"). Binaries hosting the server must dispatch to
// serve_worker_main() before anything else, exactly like the
// orchestrator's worker mode.
bool is_serve_worker_invocation(int argc, char** argv);
int serve_worker_main(int argc, char** argv);

}  // namespace mak::serve
