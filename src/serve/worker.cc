#include "serve/worker.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unistd.h>

#include <new>
#include <stdexcept>

#include "harness/checkpoint.h"
#include "harness/crawl_run.h"
#include "harness/procpool.h"
#include "support/fs.h"
#include "support/snapshot.h"

namespace mak::serve {

namespace snapshot = mak::support::snapshot;
namespace sfs = mak::support::fs;
using support::json::Value;

namespace {

constexpr std::string_view kServeWorkerMagic = "mak-serve-worker";
constexpr int kServeWorkerFormat = 1;

}  // namespace

std::vector<std::string> serve_worker_argv(const WorkerBatch& batch) {
  std::vector<std::string> args =
      harness::worker_argv("--serve-worker", batch.run);
  const auto add = [&args](const char* key, std::string value) {
    args.emplace_back(key);
    args.push_back(std::move(value));
  };
  add("--session", snapshot::u64_to_hex(batch.session_id));
  add("--base-step", std::to_string(batch.base_step));
  if (!batch.state_path.empty()) add("--state-in", batch.state_path);
  add("--steps", std::to_string(batch.steps));
  if (batch.hang_at_step > 0) {
    add("--hang-at-step", std::to_string(batch.hang_at_step));
  }
  return args;
}

std::string encode_serve_outcome(const WorkerOutcome& outcome,
                                 std::uint64_t session_id,
                                 std::size_t base_step) {
  support::json::Object inner;
  inner.emplace("finished", outcome.finished);
  inner.emplace("steps_run", static_cast<double>(outcome.steps_run));
  if (outcome.finished) {
    inner.emplace("result", harness::result_to_state(*outcome.result));
  } else {
    inner.emplace("state", *outcome.state);
  }
  support::json::Object binding;
  binding.emplace("session", snapshot::u64_to_hex(session_id));
  binding.emplace("base_step", static_cast<double>(base_step));
  binding.emplace("kind", std::string(outcome.finished ? "result" : "state"));
  return snapshot::seal(kServeWorkerMagic, kServeWorkerFormat,
                        std::move(binding),
                        support::json::dump(Value(std::move(inner))));
}

std::optional<WorkerOutcome> decode_serve_outcome(const std::string& path,
                                                  std::uint64_t session_id,
                                                  std::size_t base_step) {
  const auto contents = sfs::default_fs().read_file(path);
  if (!contents.has_value()) return std::nullopt;
  try {
    const Value outer = snapshot::unseal(*contents, kServeWorkerMagic,
                                         kServeWorkerFormat, path);
    if (snapshot::require_string(outer, "session") !=
            snapshot::u64_to_hex(session_id) ||
        snapshot::require_index(outer, "base_step") != base_step) {
      return std::nullopt;
    }
    const auto inner =
        support::json::parse(snapshot::require_string(outer, "payload"));
    if (!inner.has_value() || !inner->is_object()) return std::nullopt;
    WorkerOutcome outcome;
    outcome.steps_run = static_cast<std::size_t>(
        snapshot::require_index(*inner, "steps_run"));
    const std::string& kind = snapshot::require_string(outer, "kind");
    if (kind == "result") {
      outcome.finished = true;
      outcome.result =
          harness::result_from_state(snapshot::require(*inner, "result"));
    } else if (kind == "state") {
      outcome.finished = false;
      outcome.state = snapshot::require(*inner, "state");
    } else {
      return std::nullopt;
    }
    return outcome;
  } catch (const support::SnapshotError&) {
    return std::nullopt;
  }
}

// ------------------------------------------------------------ child side

bool is_serve_worker_invocation(int argc, char** argv) {
  return argc >= 2 && std::strcmp(argv[1], "--serve-worker") == 0;
}

namespace {

int serve_worker_run(int argc, char** argv) {
  WorkerBatch batch;
  harness::WorkerRun& run = batch.run;
  const auto extra = [&batch](const std::string& key, const char* value) {
    const auto count =
        static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
    if (key == "--session") {
      try {
        batch.session_id = snapshot::hex_to_u64(value);
      } catch (const support::SnapshotError&) {
        return false;
      }
    } else if (key == "--base-step") {
      batch.base_step = count;
    } else if (key == "--state-in") {
      batch.state_path = value;
    } else if (key == "--steps") {
      batch.steps = count;
    } else if (key == "--hang-at-step") {
      batch.hang_at_step = count;
    } else {
      return false;
    }
    return true;
  };
  std::string error;
  if (!harness::parse_worker_argv(argc, argv, run, extra, error) ||
      batch.steps == 0) {
    std::fprintf(stderr, "serve-worker: %s\n",
                 error.empty() ? "bad invocation" : error.c_str());
    return harness::kExitTransient;
  }
  const auto info = apps::resolve_app(run.app);
  const auto kind = harness::crawler_kind_from_name(run.crawler);
  if (!info.has_value() || !kind.has_value()) {
    std::fprintf(stderr, "serve-worker: unknown app or crawler\n");
    return harness::kExitTransient;
  }
  if (batch.hang_at_step > 0 && run.kill_at_step == 0) {
    // Chaos hook: wedge forever — exercises the parent's stall/deadline
    // recovery (cancel → kCancelled, session survives on last good state).
    run.config.step_hook = [hang_at = batch.hang_at_step](std::size_t step) {
      if (step == hang_at) {
        for (;;) ::pause();
      }
    };
  }

  harness::CrawlRun session(*info, *kind, run.config);
  if (!batch.state_path.empty()) {
    const auto contents = sfs::default_fs().read_file(batch.state_path);
    if (!contents.has_value()) {
      std::fprintf(stderr, "serve-worker: cannot read state %s\n",
                   batch.state_path.c_str());
      return harness::kExitTransient;
    }
    const auto state = support::json::parse(*contents);
    if (!state.has_value()) {
      std::fprintf(stderr, "serve-worker: corrupt state %s\n",
                   batch.state_path.c_str());
      return harness::kExitTransient;
    }
    session.load_state(*state);
  }

  WorkerOutcome outcome;
  outcome.steps_run = session.step_batch(batch.steps);
  outcome.finished = session.finished();
  if (outcome.finished) {
    outcome.result = session.result();
  } else {
    outcome.state = session.save_state();
  }
  if (!sfs::write_file_atomic_verified(
          sfs::default_fs(), run.out_path,
          encode_serve_outcome(outcome, batch.session_id, batch.base_step))) {
    std::fprintf(stderr, "serve-worker: cannot write result file %s\n",
                 run.out_path.c_str());
    return harness::kExitTransient;
  }
  return harness::kExitOk;
}

}  // namespace

int serve_worker_main(int argc, char** argv) {
  try {
    return serve_worker_run(argc, argv);
  } catch (const std::bad_alloc&) {
    // RLIMIT_AS surfaces as bad_alloc; report it as the OOM it is.
    return harness::kExitOom;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "serve-worker: %s\n", error.what());
    return harness::kExitTransient;
  }
}

}  // namespace mak::serve
