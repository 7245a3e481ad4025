// Multi-tenant session server: thousands of crawls over one scheduler.
//
// The server multiplexes logical crawl sessions (harness::CrawlRun) over a
// bounded pool of resident slots, stepping each in round-robin batches of
// virtual time so every tenant makes proportional progress. Robustness is
// layered (docs/robustness.md):
//
//   1. Admission control — opens pass through a bounded queue; when the
//      queue is full the server sheds load with a typed Reject instead of
//      degrading. Rejections are non-fatal: the session simply never opens.
//   2. Per-tenant quotas — cumulative steps / virtual ms / wall ms /
//      checkpoint bytes, enforced gracefully: a tenant over the soft
//      fraction is deprioritized (half scheduling rate); an exhausted
//      tenant has its sessions suspended to checkpoints; further opens are
//      rejected. Nothing is killed non-resumably.
//   3. Fault containment — sessions run in one of two isolation tiers:
//      kThread (in-process, cheap, trusted) or kProcess (each batch in a
//      fork/exec'ed --serve-worker child via harness::ProcPool, so crashes
//      and hangs are contained and retried from the last good state).
//
// Everything is deterministic in virtual time: the same command sequence
// yields byte-identical per-session results, whatever the interleaving of
// suspends, resumes, evictions, or worker-process crashes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/crawl_run.h"
#include "harness/procpool.h"
#include "harness/supervisor.h"
#include "serve/admission.h"
#include "serve/worker.h"

namespace mak::serve {

// Lifecycle of one logical session. Only kResident sessions hold (or, for
// the process tier, proxy) live crawl state; every other state is cheap.
enum class SessionState {
  kQueued,       // admitted to the queue, not yet constructed
  kResident,     // live and schedulable
  kSuspended,    // checkpointed to a state blob (or frozen in place)
  kFinished,     // budget exhausted; result retained
  kClosed,       // closed by the tenant; result retained
  kQuarantined,  // process-tier retries exhausted; last good state retained,
                 // resumable once the operator intervenes
};
std::string_view to_string(SessionState state);

enum class IsolationTier {
  kThread,   // stepped in-process (default; cheapest)
  kProcess,  // each batch fork/exec'ed via the serve-worker protocol
};

struct OpenRequest {
  std::string tenant;
  std::string app;      // apps::resolve_app name
  std::string crawler;  // harness::crawler_kind_from_name name
  harness::RunConfig config;
  IsolationTier tier = IsolationTier::kThread;
  // Chaos hooks (tests/CI): forwarded to process-tier workers.
  std::size_t kill_at_step = 0;
  std::size_t hang_at_step = 0;
};

struct OpenOutcome {
  std::uint64_t id = 0;  // valid when admitted
  Reject reject = Reject::kNone;
  bool admitted() const noexcept { return reject == Reject::kNone; }
};

// Cumulative per-tenant accounting (quota enforcement reads these).
struct TenantStats {
  std::size_t open_sessions = 0;  // queued + resident + suspended + quarantined
  std::size_t steps = 0;
  long long virtual_ms = 0;
  long long wall_ms = 0;
  std::size_t checkpoint_bytes = 0;
  std::size_t deprioritized_rounds = 0;
  std::size_t suspensions = 0;  // quota-forced suspends
};

struct ServerStats {
  std::size_t opened = 0;
  std::size_t rejected = 0;
  std::size_t finished = 0;
  std::size_t closed = 0;
  std::size_t evicted = 0;
  std::size_t resumed = 0;
  std::size_t worker_dispatches = 0;
  std::size_t worker_failures = 0;
  std::size_t worker_retries = 0;
  std::size_t worker_cancelled = 0;
  std::size_t stall_recoveries = 0;
  std::size_t quarantined = 0;
};

class SessionServer {
 public:
  // `scratch_dir` hosts process-tier state files; required (created on
  // demand) when any session uses IsolationTier::kProcess.
  explicit SessionServer(ServerConfig config, std::string scratch_dir = "");
  ~SessionServer();

  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  // Quota for one tenant (overrides config.default_quota). Takes effect on
  // the next scheduling round; lowering a quota below current usage
  // suspends the tenant's sessions rather than destroying them.
  void set_tenant_quota(const std::string& tenant, const TenantQuota& quota);

  // Admission-controlled open. On rejection the outcome carries the typed
  // reason and no server state changes.
  OpenOutcome open(const OpenRequest& request);

  // One scheduling round: admit from the queue (evicting LRU residents that
  // have run since their activation to make room when it is backed up), then
  // run one batch per schedulable tenant in round-robin order. Returns crawl
  // steps executed this round.
  std::size_t tick();

  // Tick until no session can make progress (all finished, suspended,
  // quarantined, or quota-frozen; or queued behind slots no eviction can
  // free). Returns total steps executed.
  std::size_t run_until_idle();

  // Explicit suspend: checkpoint the session and free its resident slot
  // (snapshot-capable sessions serialize; others freeze in place, keeping
  // their slot but leaving the scheduler). False if not resident.
  bool suspend(std::uint64_t id);

  // Re-admission of a suspended or quarantined session, subject to the
  // same admission control as open().
  Reject resume(std::uint64_t id);

  // Close a session and return its result: final for finished sessions,
  // partial (marked aborted with `reason`) otherwise. nullopt if the id is
  // unknown or already closed.
  std::optional<harness::RunResult> close(std::uint64_t id,
                                          const std::string& reason = "closed");

  // Drain: suspend every resident session and reject all future admissions
  // with Reject::kShuttingDown. No session is lost — each is finished,
  // closed, suspended, or quarantined, and the latter two hold resumable
  // state.
  void shutdown();

  // --- queries ----------------------------------------------------------
  SessionState state(std::uint64_t id) const;  // throws on unknown id
  // Retained result of a finished/closed session; nullptr otherwise.
  const harness::RunResult* result(std::uint64_t id) const;
  TenantStats tenant_stats(const std::string& tenant) const;
  const ServerStats& stats() const noexcept { return stats_; }
  std::size_t queue_depth() const noexcept { return queue_.size(); }
  std::size_t resident_count() const noexcept { return resident_; }
  std::size_t session_count() const noexcept { return sessions_.size(); }
  const ServerConfig& config() const noexcept { return config_; }

  // Jain's fairness index over per-tenant allocations: (Σx)² / (n·Σx²),
  // 1.0 = perfectly fair. Empty or all-zero input yields 1.0.
  static double jain_index(const std::vector<double>& allocations);

 private:
  struct Session {
    std::uint64_t id = 0;
    std::string tenant;
    std::string app_name;
    std::string crawler_name;
    apps::AppInfo info;
    harness::CrawlerKind kind{};
    harness::RunConfig config;
    IsolationTier tier = IsolationTier::kThread;
    SessionState state = SessionState::kQueued;
    std::unique_ptr<harness::CrawlRun> live;  // thread tier, while resident
    std::string saved;          // serialized state (suspended / process tier)
    bool frozen_in_place = false;  // suspended but keeping the live object
    bool snapshot_capable = false;
    std::size_t steps = 0;
    support::VirtualMillis now = 0;
    std::uint64_t last_run_round = 0;
    bool ran_since_activation = false;  // evictable only once true
    std::optional<harness::RunResult> final_result;
    std::size_t kill_at_step = 0;
    std::size_t hang_at_step = 0;
  };

  struct Tenant {
    TenantQuota quota;
    TenantStats stats;
    std::vector<std::uint64_t> session_ids;  // insertion order
    std::size_t rr_cursor = 0;               // round-robin within the tenant
    bool has_quota_override = false;
  };

  Tenant& tenant(const std::string& name);
  const TenantQuota& quota_of(const Tenant& tenant) const;
  bool hard_exhausted(const Tenant& tenant) const;
  bool soft_exceeded(const Tenant& tenant) const;
  std::size_t step_allowance(const Tenant& tenant) const;

  std::size_t admit_from_queue();  // returns sessions admitted
  // Evict the LRU resident among those that ran a batch since activation;
  // false if none is evictable.
  bool make_room();
  bool activate(Session& session);  // queue → resident (construct/load)
  void suspend_session(Session& session, bool count_as_quota);
  void enforce_quota_suspend(Tenant& tenant);
  void finalize(Session& session, harness::RunResult result);
  std::size_t run_batch(Session& session, std::size_t max_steps);
  std::size_t run_thread_batch(Session& session, std::size_t max_steps);
  std::size_t run_process_batch(Session& session, std::size_t max_steps);
  void charge(Session& session, std::size_t ran,
              support::VirtualMillis virtual_delta, long long wall_ms);
  void update_gauges();
  std::unique_ptr<harness::CrawlRun> materialize(const Session& session) const;

  ServerConfig config_;
  std::string scratch_dir_;
  std::unordered_map<std::uint64_t, Session> sessions_;
  std::unordered_map<std::string, Tenant> tenants_;
  std::vector<std::string> tenant_order_;  // deterministic rotation order
  std::deque<std::uint64_t> queue_;
  std::size_t resident_ = 0;
  std::size_t tenant_cursor_ = 0;
  std::uint64_t round_ = 0;
  std::size_t last_admitted_ = 0;  // sessions admitted by the latest tick()
  std::uint64_t next_id_ = 1;
  bool shutting_down_ = false;
  ServerStats stats_;
  harness::ProcPool pool_;
  std::optional<harness::RunSupervisor> supervisor_;
};

}  // namespace mak::serve
