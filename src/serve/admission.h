// Admission control and per-tenant quotas for the session server.
//
// Every open/resume request passes through admission control before it can
// consume server resources. Rejections are typed (`Reject`) and non-fatal:
// the server returns the reason to the caller and stays healthy — load
// shedding under overload is a first-class response, never an abort.
//
// Quotas are cumulative per tenant (steps, virtual milliseconds, wall
// milliseconds, suspended-checkpoint bytes) and enforced by a graceful
// ladder: approaching the cap deprioritizes the tenant's sessions,
// exhaustion suspends them to checkpoints (resumable if the quota is
// raised), and further opens are rejected with `Reject::kQuotaExhausted`.
// Wall-millisecond quotas meter real time and are therefore
// nondeterministic; deterministic scripts and CI leave them unlimited.
#pragma once

#include <cstddef>
#include <string_view>

namespace mak::serve {

// Why an open/resume request was refused. kNone means admitted.
enum class Reject {
  kNone = 0,
  kQueueFull,       // admission queue at capacity: load shed, retry later
  kTenantSessions,  // tenant at its concurrent-session cap
  kQuotaExhausted,  // tenant's cumulative quota is spent
  kUnknownApp,      // app name the catalog cannot resolve
  kBadConfig,       // invalid run config (e.g. zero budget, trace set)
  kShuttingDown,    // server is draining; no new admissions
};

std::string_view to_string(Reject reject);

// Cumulative per-tenant resource caps. 0 = unlimited for every field.
struct TenantQuota {
  std::size_t max_sessions = 0;        // concurrent sessions (admission-time)
  std::size_t max_steps = 0;           // total crawl steps across sessions
  long long max_virtual_ms = 0;        // total virtual time across sessions
  long long max_wall_ms = 0;           // total real time (nondeterministic!)
  std::size_t max_checkpoint_bytes = 0;  // bytes of suspended session state

  bool limits_steps() const noexcept { return max_steps > 0; }
  bool limits_virtual() const noexcept { return max_virtual_ms > 0; }
  bool limits_wall() const noexcept { return max_wall_ms > 0; }
};

// Server-wide tuning. Defaults are production-shaped; server_from_env()
// overrides from MAK_SERVE_* with fail-fast validation (support/env.h).
struct ServerConfig {
  std::size_t max_resident = 256;       // live CrawlRun objects at once
  std::size_t max_queue = 4096;         // admission queue capacity
  std::size_t batch_steps = 64;         // crawl steps per scheduling quantum
  long heartbeat_ms = 0;                // server stall watchdog (0 = off)
  long long worker_wall_ms = 10000;     // per-dispatch deadline, process tier
  std::size_t worker_attempts = 3;      // process-tier retries per batch
  // Tenants above this fraction of any cumulative quota are deprioritized
  // (scheduled at half rate) before the hard suspend kicks in.
  double soft_quota_fraction = 0.75;
  TenantQuota default_quota;            // for tenants without an explicit one
};

// Reads MAK_SERVE_RESIDENT, MAK_SERVE_QUEUE, MAK_SERVE_BATCH,
// MAK_SERVE_HEARTBEAT_MS, MAK_SERVE_WORKER_WALL_MS, MAK_SERVE_ATTEMPTS.
// Unset keeps the default; invalid values fail fast with the valid range.
ServerConfig server_from_env();

}  // namespace mak::serve
