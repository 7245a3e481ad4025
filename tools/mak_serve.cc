// mak_serve: drive a serve::SessionServer from a deterministic command
// script (docs/robustness.md). One command per line, '#' comments ignored:
//
//   quota <tenant> [sessions=N] [steps=N] [virtual_ms=N] [wall_ms=N]
//                  [ckpt_bytes=N]
//   open <tenant> <app> <crawler> [budget=MS] [seed=HEX] [tier=thread|
//        process] [fault=SPEC] [drift=SPEC] [kill_at=N] [hang_at=N]
//   tick [N]          — N scheduling rounds (default 1)
//   run               — tick until idle
//   suspend <id> | resume <id> | close <id> | state <id>
//   stats <tenant>    — cumulative per-tenant accounting
//   shutdown
//
// Every command echoes a deterministic result line, so a script's full
// output can be golden-tested. The server is configured from MAK_SERVE_*
// (serve/admission.h); scripts arrive on stdin or as a file argument.
// Process-tier state lives in a per-run directory under TMPDIR.
//
//   mak_serve [script-file]
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/server.h"
#include "serve/worker.h"
#include "support/fs.h"
#include "support/snapshot.h"
#include "support/strings.h"

namespace {

using mak::serve::IsolationTier;
using mak::serve::OpenRequest;
using mak::serve::Reject;
using mak::serve::SessionServer;
using mak::serve::TenantQuota;

std::vector<std::string> split_ws(const std::string& line) {
  std::istringstream stream(line);
  std::vector<std::string> tokens;
  std::string token;
  while (stream >> token) tokens.push_back(token);
  return tokens;
}

// "key=value" option split; returns true and fills out the pieces.
bool split_option(const std::string& token, std::string& key,
                  std::string& value) {
  const auto eq = token.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  key = token.substr(0, eq);
  value = token.substr(eq + 1);
  return true;
}

int run_script(std::istream& in) {
  // Process-tier state files go to a fresh directory of this run, removed
  // at exit, so concurrent runs never share them.
  const mak::support::fs::TempDir scratch("mak-serve");
  SessionServer server(mak::serve::server_from_env(), scratch.path());
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto tokens = split_ws(line);
    if (tokens.empty() || tokens[0][0] == '#') continue;
    const std::string& cmd = tokens[0];
    try {
    if (cmd == "quota" && tokens.size() >= 2) {
      TenantQuota quota;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        std::string key, value;
        if (!split_option(tokens[i], key, value)) continue;
        const auto number = std::strtoull(value.c_str(), nullptr, 10);
        if (key == "sessions") quota.max_sessions = number;
        else if (key == "steps") quota.max_steps = number;
        else if (key == "virtual_ms") quota.max_virtual_ms =
            static_cast<long long>(number);
        else if (key == "wall_ms") quota.max_wall_ms =
            static_cast<long long>(number);
        else if (key == "ckpt_bytes") quota.max_checkpoint_bytes = number;
      }
      server.set_tenant_quota(tokens[1], quota);
      std::printf("quota tenant=%s\n", tokens[1].c_str());
    } else if (cmd == "open" && tokens.size() >= 4) {
      OpenRequest request;
      request.tenant = tokens[1];
      request.app = tokens[2];
      request.crawler = tokens[3];
      bool ok = true;
      for (std::size_t i = 4; i < tokens.size(); ++i) {
        std::string key, value;
        if (!split_option(tokens[i], key, value)) continue;
        if (key == "budget") {
          request.config.budget = std::strtoll(value.c_str(), nullptr, 10);
        } else if (key == "seed") {
          request.config.seed =
              mak::support::snapshot::hex_to_u64(value);
        } else if (key == "tier") {
          request.tier = value == "process" ? IsolationTier::kProcess
                                            : IsolationTier::kThread;
        } else if (key == "fault") {
          const auto fault = mak::httpsim::FaultProfile::parse(value);
          if (!fault) { ok = false; break; }
          request.config.fault = *fault;
        } else if (key == "drift") {
          const auto drift = mak::webapp::DriftProfile::parse(value);
          if (!drift) { ok = false; break; }
          request.config.drift = *drift;
        } else if (key == "kill_at") {
          request.kill_at_step = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "hang_at") {
          request.hang_at_step = std::strtoull(value.c_str(), nullptr, 10);
        }
      }
      if (!ok) {
        std::printf("reject reason=bad_config\n");
        continue;
      }
      const auto outcome = server.open(request);
      if (outcome.admitted()) {
        std::printf("open id=%llu\n",
                    static_cast<unsigned long long>(outcome.id));
      } else {
        std::printf("reject reason=%.*s\n",
                    static_cast<int>(to_string(outcome.reject).size()),
                    to_string(outcome.reject).data());
      }
    } else if (cmd == "tick") {
      std::size_t rounds = 1;
      if (tokens.size() >= 2) {
        rounds = std::strtoull(tokens[1].c_str(), nullptr, 10);
      }
      std::size_t steps = 0;
      for (std::size_t i = 0; i < rounds; ++i) steps += server.tick();
      std::printf("tick rounds=%zu steps=%zu\n", rounds, steps);
    } else if (cmd == "run") {
      std::printf("run steps=%zu\n", server.run_until_idle());
    } else if (cmd == "suspend" && tokens.size() >= 2) {
      const auto id = std::strtoull(tokens[1].c_str(), nullptr, 10);
      std::printf("suspend id=%llu ok=%d\n",
                  static_cast<unsigned long long>(id),
                  server.suspend(id) ? 1 : 0);
    } else if (cmd == "resume" && tokens.size() >= 2) {
      const auto id = std::strtoull(tokens[1].c_str(), nullptr, 10);
      const Reject reject = server.resume(id);
      std::printf("resume id=%llu result=%.*s\n",
                  static_cast<unsigned long long>(id),
                  static_cast<int>(to_string(reject).size()),
                  to_string(reject).data());
    } else if (cmd == "close" && tokens.size() >= 2) {
      const auto id = std::strtoull(tokens[1].c_str(), nullptr, 10);
      const auto result = server.close(id);
      if (result.has_value()) {
        std::printf("close id=%llu steps=%zu covered=%zu aborted=%d\n",
                    static_cast<unsigned long long>(id), result->steps,
                    result->final_covered_lines, result->aborted ? 1 : 0);
      } else {
        std::printf("close id=%llu unknown\n",
                    static_cast<unsigned long long>(id));
      }
    } else if (cmd == "state" && tokens.size() >= 2) {
      const auto id = std::strtoull(tokens[1].c_str(), nullptr, 10);
      std::printf("state id=%llu %.*s\n",
                  static_cast<unsigned long long>(id),
                  static_cast<int>(to_string(server.state(id)).size()),
                  to_string(server.state(id)).data());
    } else if (cmd == "stats" && tokens.size() >= 2) {
      const auto stats = server.tenant_stats(tokens[1]);
      std::printf(
          "stats tenant=%s open=%zu steps=%zu virtual_ms=%lld "
          "ckpt_bytes=%zu suspensions=%zu\n",
          tokens[1].c_str(), stats.open_sessions, stats.steps,
          stats.virtual_ms, stats.checkpoint_bytes, stats.suspensions);
    } else if (cmd == "shutdown") {
      server.shutdown();
      std::printf("shutdown\n");
    } else {
      std::fprintf(stderr, "mak_serve: line %zu: bad command: %s\n",
                   line_no, line.c_str());
      return 2;
    }
    } catch (const std::exception& error) {
      // Bad operand (malformed hex seed, unknown session id, ...): report
      // deterministically and keep the server running — scripts stay
      // golden-testable even through operator typos.
      std::printf("error line=%zu %s\n", line_no, error.what());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Process-tier workers re-exec this binary; dispatch them first.
  if (mak::serve::is_serve_worker_invocation(argc, argv)) {
    return mak::serve::serve_worker_main(argc, argv);
  }
  if (argc >= 2) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "mak_serve: cannot open %s\n", argv[1]);
      return 2;
    }
    return run_script(file);
  }
  return run_script(std::cin);
}
