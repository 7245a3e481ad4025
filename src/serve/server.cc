#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>

#include "support/fs.h"
#include "support/json.h"
#include "support/log.h"
#include "support/metric_names.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/snapshot.h"

namespace mak::serve {

namespace sfs = mak::support::fs;
namespace snapshot = mak::support::snapshot;
namespace metric = mak::support::metric;
using support::MetricsRegistry;

std::string_view to_string(SessionState state) {
  switch (state) {
    case SessionState::kQueued: return "queued";
    case SessionState::kResident: return "resident";
    case SessionState::kSuspended: return "suspended";
    case SessionState::kFinished: return "finished";
    case SessionState::kClosed: return "closed";
    case SessionState::kQuarantined: return "quarantined";
  }
  return "unknown";
}

namespace {

std::size_t remaining(std::size_t used, std::size_t cap) {
  return used >= cap ? 0 : cap - used;
}

}  // namespace

SessionServer::SessionServer(ServerConfig config, std::string scratch_dir)
    : config_(std::move(config)),
      scratch_dir_(std::move(scratch_dir)),
      pool_("/proc/self/exe") {
  if (!scratch_dir_.empty()) {
    sfs::default_fs().create_directories(scratch_dir_);
  }
  if (config_.heartbeat_ms > 0) {
    harness::SupervisorConfig watch;
    watch.heartbeat_ms = config_.heartbeat_ms;
    supervisor_.emplace(watch);
  }
}

SessionServer::~SessionServer() {
  pool_.drain();
  while (pool_.running() > 0) pool_.poll(true);
}

double SessionServer::jain_index(const std::vector<double>& allocations) {
  if (allocations.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : allocations) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return (sum * sum) /
         (static_cast<double>(allocations.size()) * sum_sq);
}

SessionServer::Tenant& SessionServer::tenant(const std::string& name) {
  auto [it, inserted] = tenants_.try_emplace(name);
  if (inserted) tenant_order_.push_back(name);
  return it->second;
}

const TenantQuota& SessionServer::quota_of(const Tenant& tenant) const {
  return tenant.has_quota_override ? tenant.quota : config_.default_quota;
}

bool SessionServer::hard_exhausted(const Tenant& tenant) const {
  const TenantQuota& quota = quota_of(tenant);
  const TenantStats& used = tenant.stats;
  return (quota.limits_steps() && used.steps >= quota.max_steps) ||
         (quota.limits_virtual() &&
          used.virtual_ms >= quota.max_virtual_ms) ||
         (quota.limits_wall() && used.wall_ms >= quota.max_wall_ms);
}

bool SessionServer::soft_exceeded(const Tenant& tenant) const {
  const TenantQuota& quota = quota_of(tenant);
  const TenantStats& used = tenant.stats;
  const double frac = config_.soft_quota_fraction;
  return (quota.limits_steps() &&
          static_cast<double>(used.steps) >=
              frac * static_cast<double>(quota.max_steps)) ||
         (quota.limits_virtual() &&
          static_cast<double>(used.virtual_ms) >=
              frac * static_cast<double>(quota.max_virtual_ms)) ||
         (quota.limits_wall() &&
          static_cast<double>(used.wall_ms) >=
              frac * static_cast<double>(quota.max_wall_ms));
}

std::size_t SessionServer::step_allowance(const Tenant& tenant) const {
  const TenantQuota& quota = quota_of(tenant);
  std::size_t allow = std::numeric_limits<std::size_t>::max();
  if (quota.limits_steps()) {
    allow = std::min(allow, remaining(tenant.stats.steps, quota.max_steps));
  }
  if (quota.limits_virtual()) {
    // Each step advances at least think_time of virtual budget; translate
    // the remaining virtual allowance into a step bound.
    const long long left = quota.max_virtual_ms - tenant.stats.virtual_ms;
    if (left <= 0) return 0;
    allow = std::min(allow, static_cast<std::size_t>(left / 700 + 1));
  }
  return allow;
}

void SessionServer::set_tenant_quota(const std::string& name,
                                     const TenantQuota& quota) {
  Tenant& entry = tenant(name);
  entry.quota = quota;
  entry.has_quota_override = true;
}

OpenOutcome SessionServer::open(const OpenRequest& request) {
  static support::Counter& rejections = MetricsRegistry::global().counter(
      metric::kServeAdmissionRejections);
  static support::Counter& quota_rejections =
      MetricsRegistry::global().counter(metric::kQuotaRejections);
  const auto shed = [&](Reject reject) {
    ++stats_.rejected;
    rejections.add(1);
    if (reject == Reject::kQuotaExhausted) quota_rejections.add(1);
    OpenOutcome outcome;
    outcome.reject = reject;
    return outcome;
  };
  if (shutting_down_) return shed(Reject::kShuttingDown);
  const auto info = apps::resolve_app(request.app);
  if (!info.has_value()) return shed(Reject::kUnknownApp);
  const auto kind = harness::crawler_kind_from_name(request.crawler);
  if (!kind.has_value()) return shed(Reject::kBadConfig);
  if (request.config.trace != nullptr || request.config.budget <= 0) {
    return shed(Reject::kBadConfig);
  }
  const bool capable =
      harness::make_crawler(*kind, support::Rng(0))->snapshotable() != nullptr;
  if (request.tier == IsolationTier::kProcess &&
      (!capable || scratch_dir_.empty())) {
    // The process tier is built on state-in/state-out; a crawler that
    // cannot snapshot (or a server without scratch space) cannot ride it.
    return shed(Reject::kBadConfig);
  }
  Tenant& entry = tenant(request.tenant);
  const TenantQuota& quota = quota_of(entry);
  if (quota.max_sessions > 0 &&
      entry.stats.open_sessions >= quota.max_sessions) {
    return shed(Reject::kTenantSessions);
  }
  if (hard_exhausted(entry) ||
      (quota.max_checkpoint_bytes > 0 &&
       entry.stats.checkpoint_bytes >= quota.max_checkpoint_bytes)) {
    return shed(Reject::kQuotaExhausted);
  }
  if (queue_.size() >= config_.max_queue) return shed(Reject::kQueueFull);

  Session session;
  session.id = next_id_++;
  session.tenant = request.tenant;
  session.app_name = request.app;
  session.crawler_name = request.crawler;
  session.info = *info;
  session.kind = *kind;
  session.config = request.config;
  session.config.trace = nullptr;
  session.tier = request.tier;
  session.snapshot_capable = capable;
  session.kill_at_step = request.kill_at_step;
  session.hang_at_step = request.hang_at_step;
  const std::uint64_t id = session.id;
  sessions_.emplace(id, std::move(session));
  entry.session_ids.push_back(id);
  ++entry.stats.open_sessions;
  queue_.push_back(id);
  ++stats_.opened;
  MetricsRegistry::global().counter(metric::kServeSessionsOpened).add(1);
  OpenOutcome outcome;
  outcome.id = id;
  return outcome;
}

std::unique_ptr<harness::CrawlRun> SessionServer::materialize(
    const Session& session) const {
  auto live = std::make_unique<harness::CrawlRun>(session.info, session.kind,
                                                  session.config);
  if (!session.saved.empty()) {
    const auto state = support::json::parse(session.saved);
    if (!state.has_value()) {
      throw support::SnapshotError("serve: corrupt saved session state");
    }
    live->load_state(*state);
  }
  return live;
}

bool SessionServer::activate(Session& session) {
  if (session.tier == IsolationTier::kThread) {
    session.live = materialize(session);
    // The blob was only the transport into the live object; holding both
    // would double-count quota.checkpoint_bytes.
    Tenant& entry = tenants_.at(session.tenant);
    entry.stats.checkpoint_bytes -= session.saved.size();
    session.saved.clear();
  }
  session.state = SessionState::kResident;
  session.last_run_round = round_;
  session.ran_since_activation = false;
  ++resident_;
  return true;
}

bool SessionServer::make_room() {
  // Evict the least-recently-scheduled resident whose state can leave
  // memory (serializable thread-tier sessions and all process-tier ones;
  // frozen-in-place sessions keep their slot by definition). A session
  // becomes a candidate only once it has run a batch since it was last
  // activated: otherwise one admit pass over a long queue would construct
  // and evict every queued session in turn without stepping any of them.
  Session* victim = nullptr;
  int victim_rank = 0;
  for (auto& [id, session] : sessions_) {
    if (session.state != SessionState::kResident) continue;
    if (!session.ran_since_activation) continue;
    if (session.tier == IsolationTier::kThread && !session.snapshot_capable) {
      continue;
    }
    const int rank =
        soft_exceeded(tenants_.at(session.tenant)) ? 0 : 1;
    if (victim == nullptr || rank < victim_rank ||
        (rank == victim_rank &&
         (session.last_run_round < victim->last_run_round ||
          (session.last_run_round == victim->last_run_round &&
           session.id < victim->id)))) {
      victim = &session;
      victim_rank = rank;
    }
  }
  if (victim == nullptr) return false;
  suspend_session(*victim, /*count_as_quota=*/false);
  // Eviction is involuntary — unlike an explicit suspend(), the session
  // goes straight back to the admission queue so it reclaims a slot (and
  // keeps making progress) as soon as the pressure passes.
  victim->state = SessionState::kQueued;
  queue_.push_back(victim->id);
  ++stats_.evicted;
  MetricsRegistry::global().counter(metric::kServeSessionsEvicted).add(1);
  return true;
}

std::size_t SessionServer::admit_from_queue() {
  // Bound one pass by the queue length at entry: evictions requeue their
  // victims at the back, and a victim re-admitted in the same pass would
  // only evict another session. Sessions admitted in this pass have not run
  // yet, so they are never victims (make_room).
  std::size_t admitted = 0;
  std::size_t budget = queue_.size();
  while (!queue_.empty() && budget-- > 0) {
    const std::uint64_t id = queue_.front();
    auto it = sessions_.find(id);
    if (it == sessions_.end() || it->second.state != SessionState::kQueued) {
      queue_.pop_front();  // closed while queued
      continue;
    }
    if (resident_ >= config_.max_resident && !make_room()) break;
    queue_.pop_front();
    activate(it->second);
    ++admitted;
  }
  return admitted;
}

void SessionServer::suspend_session(Session& session, bool count_as_quota) {
  if (session.state != SessionState::kResident) return;
  Tenant& entry = tenants_.at(session.tenant);
  if (session.tier == IsolationTier::kProcess) {
    --resident_;  // state already lives in session.saved
  } else if (session.snapshot_capable && session.live &&
             session.live->started()) {
    const std::string blob = support::json::dump(session.live->save_state());
    entry.stats.checkpoint_bytes += blob.size();
    session.saved = blob;
    session.live.reset();
    --resident_;
  } else if (session.live && !session.live->started()) {
    // Never stepped: there is no in-flight state; a fresh construction on
    // resume reproduces it exactly.
    session.live.reset();
    --resident_;
  } else {
    // Not serializable (WebExplor/QExplore): freeze in place — the object
    // stays resident (keeping its slot) but leaves the scheduler. Still
    // resumable; never killed.
    session.frozen_in_place = true;
  }
  session.state = SessionState::kSuspended;
  MetricsRegistry::global().counter(metric::kServeSessionsSuspended).add(1);
  if (count_as_quota) {
    ++entry.stats.suspensions;
    MetricsRegistry::global().counter(metric::kQuotaSuspensions).add(1);
  }
}

void SessionServer::enforce_quota_suspend(Tenant& tenant) {
  for (const std::uint64_t id : tenant.session_ids) {
    Session& session = sessions_.at(id);
    if (session.state == SessionState::kResident) {
      suspend_session(session, /*count_as_quota=*/true);
    }
  }
}

void SessionServer::finalize(Session& session, harness::RunResult result) {
  const bool held_slot = session.state == SessionState::kResident &&
                         !session.frozen_in_place;
  session.final_result = std::move(result);
  session.live.reset();
  Tenant& entry = tenants_.at(session.tenant);
  entry.stats.checkpoint_bytes -= session.saved.size();
  session.saved.clear();
  session.frozen_in_place = false;
  if (held_slot) --resident_;
  session.state = SessionState::kFinished;
  --entry.stats.open_sessions;
  ++stats_.finished;
  MetricsRegistry::global().counter(metric::kServeSessionsFinished).add(1);
}

void SessionServer::charge(Session& session, std::size_t ran,
                           support::VirtualMillis virtual_delta,
                           long long wall_ms) {
  static support::Counter& steps_counter =
      MetricsRegistry::global().counter(metric::kServeSteps);
  steps_counter.add(ran);
  Tenant& entry = tenants_.at(session.tenant);
  entry.stats.steps += ran;
  entry.stats.virtual_ms += virtual_delta;
  entry.stats.wall_ms += wall_ms;
}

std::size_t SessionServer::run_thread_batch(Session& session,
                                            std::size_t max_steps) {
  const auto wall_start = std::chrono::steady_clock::now();
  const support::VirtualMillis before = session.live->now();
  const std::size_t ran = session.live->step_batch(max_steps);
  const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
  charge(session, ran, session.live->now() - before, wall_ms);
  session.steps = session.live->steps();
  session.now = session.live->now();
  session.last_run_round = round_;
  session.ran_since_activation = true;
  if (session.live->finished()) {
    finalize(session, session.live->result());
  }
  return ran;
}

std::size_t SessionServer::run_process_batch(Session& session,
                                             std::size_t max_steps) {
  auto& registry = MetricsRegistry::global();
  const auto wall_start = std::chrono::steady_clock::now();
  const std::string base =
      scratch_dir_ + "/sess-" + std::to_string(session.id);

  WorkerBatch batch;
  batch.run.app = session.app_name;
  batch.run.crawler = session.crawler_name;
  batch.run.config = session.config;
  batch.run.out_path = base + "-out.json";
  batch.run.kill_at_step = session.kill_at_step;
  batch.session_id = session.id;
  batch.base_step = session.steps;
  batch.steps = max_steps;
  batch.hang_at_step = session.hang_at_step;
  if (!session.saved.empty()) {
    batch.state_path = base + "-in.json";
    if (!sfs::write_file_atomic_verified(sfs::default_fs(), batch.state_path,
                                         session.saved)) {
      throw std::runtime_error("serve: cannot write worker state file");
    }
  }

  for (std::size_t attempt = 1; attempt <= config_.worker_attempts;
       ++attempt) {
    ++stats_.worker_dispatches;
    registry.counter(metric::kServeWorkerDispatches).add(1);
    harness::WorkerSpec spec;
    spec.args = serve_worker_argv(batch);
    spec.stderr_path = base + "-stderr.log";
    harness::WorkerLimits limits;
    limits.wall_timeout_ms = static_cast<long>(config_.worker_wall_ms);
    const int slot = pool_.spawn(spec, limits);
    harness::FailureClass failure = harness::FailureClass::kTransient;
    if (slot >= 0) {
      bool reaped = false;
      while (!reaped) {
        for (const auto& exit : pool_.poll(false)) {
          if (exit.slot == slot) {
            failure = exit.outcome.failure;
            reaped = true;
          }
        }
        if (reaped) break;
        if (supervisor_.has_value() && supervisor_->stalled()) {
          // The server stopped making progress while this child ran: treat
          // the child as wedged, kill it deliberately, and recover. The
          // cancel classifies as kCancelled — never a spurious OOM.
          pool_.cancel(slot);
          supervisor_->rearm();
          ++stats_.stall_recoveries;
          registry.counter(metric::kServeStallRecoveries).add(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (failure == harness::FailureClass::kNone) {
      const auto outcome =
          decode_serve_outcome(batch.run.out_path, session.id, batch.base_step);
      if (outcome.has_value()) {
        const auto wall_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        session.last_run_round = round_;
        session.ran_since_activation = true;
        if (outcome->finished) {
          const harness::RunResult& result = *outcome->result;
          charge(session, outcome->steps_run,
                 session.config.budget - session.now, wall_ms);
          session.steps = result.steps;
          session.now = session.config.budget;
          finalize(session, result);
        } else {
          const std::string blob = support::json::dump(*outcome->state);
          const auto clock_ms = static_cast<support::VirtualMillis>(
              snapshot::require_index(*outcome->state, "clock_ms"));
          charge(session, outcome->steps_run, clock_ms - session.now,
                 wall_ms);
          Tenant& entry = tenants_.at(session.tenant);
          entry.stats.checkpoint_bytes += blob.size();
          entry.stats.checkpoint_bytes -= session.saved.size();
          session.saved = blob;
          session.steps += outcome->steps_run;
          session.now = clock_ms;
        }
        return outcome->steps_run;
      }
      failure = harness::FailureClass::kTransient;  // corrupt envelope
    }
    ++stats_.worker_failures;
    registry.counter(metric::kServeWorkerFailures).add(1);
    if (failure == harness::FailureClass::kCancelled) {
      // Deliberate parent-side kill (stall recovery / drain): park the
      // session on its last good state instead of burning retries.
      ++stats_.worker_cancelled;
      registry.counter(metric::kServeWorkerCancelled).add(1);
      suspend_session(session, /*count_as_quota=*/false);
      return 0;
    }
    // The chaos hooks are one-shot: the kill/hang modeled an external
    // event, so the retry runs the same batch clean — and, because the
    // session is deterministic, reproduces it byte-for-byte.
    batch.run.kill_at_step = 0;
    batch.hang_at_step = 0;
    session.kill_at_step = 0;
    session.hang_at_step = 0;
    if (attempt < config_.worker_attempts) {
      ++stats_.worker_retries;
      registry.counter(metric::kServeWorkerRetries).add(1);
    }
  }
  // Retries exhausted: quarantine. The last good state survives, so an
  // operator resume() can still bring the session back — quarantine is a
  // parking state, not a kill.
  MAK_LOG_WARN << "serve: session " << session.id << " quarantined after "
               << config_.worker_attempts << " failed dispatches";
  --resident_;
  session.state = SessionState::kQuarantined;
  ++stats_.quarantined;
  return 0;
}

std::size_t SessionServer::run_batch(Session& session,
                                     std::size_t max_steps) {
  return session.tier == IsolationTier::kProcess
             ? run_process_batch(session, max_steps)
             : run_thread_batch(session, max_steps);
}

std::size_t SessionServer::tick() {
  auto& registry = MetricsRegistry::global();
  ++round_;
  registry.counter(metric::kServeTicks).add(1);
  last_admitted_ = admit_from_queue();
  std::size_t total = 0;
  const std::size_t tenants = tenant_order_.size();
  for (std::size_t i = 0; i < tenants; ++i) {
    const std::size_t index = (tenant_cursor_ + i) % tenants;
    Tenant& entry = tenants_.at(tenant_order_[index]);
    if (hard_exhausted(entry)) {
      enforce_quota_suspend(entry);
      continue;
    }
    if (soft_exceeded(entry) && round_ % 2 != 0) {
      ++entry.stats.deprioritized_rounds;
      registry.counter(metric::kQuotaDeprioritized).add(1);
      continue;
    }
    // Round-robin inside the tenant: next resident, schedulable session.
    Session* chosen = nullptr;
    const std::size_t count = entry.session_ids.size();
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t at = (entry.rr_cursor + j) % count;
      Session& candidate = sessions_.at(entry.session_ids[at]);
      if (candidate.state == SessionState::kResident &&
          !candidate.frozen_in_place) {
        chosen = &candidate;
        entry.rr_cursor = (at + 1) % count;
        break;
      }
    }
    if (chosen == nullptr) continue;
    const std::size_t allowance =
        std::min(config_.batch_steps, step_allowance(entry));
    if (allowance == 0) {
      enforce_quota_suspend(entry);
      continue;
    }
    total += run_batch(*chosen, allowance);
  }
  if (tenants > 0) tenant_cursor_ = (tenant_cursor_ + 1) % tenants;
  if (supervisor_.has_value()) supervisor_->heartbeat();
  update_gauges();
  return total;
}

std::size_t SessionServer::run_until_idle() {
  std::size_t total = 0;
  // A round is idle when it ran no steps and admitted nothing; a queued
  // session that cannot get a slot (every resident frozen in place) stays
  // queued rather than spinning the loop. Two consecutive idle rounds, not
  // one: deprioritized tenants only run on even rounds, so a single zero
  // round can precede real progress.
  int idle_rounds = 0;
  while (idle_rounds < 2) {
    const std::size_t ran = tick();
    total += ran;
    if (ran == 0 && last_admitted_ == 0) {
      ++idle_rounds;
    } else {
      idle_rounds = 0;
    }
  }
  return total;
}

bool SessionServer::suspend(std::uint64_t id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end() ||
      it->second.state != SessionState::kResident) {
    return false;
  }
  suspend_session(it->second, /*count_as_quota=*/false);
  return true;
}

Reject SessionServer::resume(std::uint64_t id) {
  static support::Counter& rejections = MetricsRegistry::global().counter(
      metric::kServeAdmissionRejections);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return Reject::kBadConfig;
  Session& session = it->second;
  if (session.state != SessionState::kSuspended &&
      session.state != SessionState::kQuarantined) {
    return Reject::kBadConfig;
  }
  const auto shed = [&](Reject reject) {
    ++stats_.rejected;
    rejections.add(1);
    return reject;
  };
  if (shutting_down_) return shed(Reject::kShuttingDown);
  if (hard_exhausted(tenants_.at(session.tenant))) {
    return shed(Reject::kQuotaExhausted);
  }
  ++stats_.resumed;
  MetricsRegistry::global().counter(metric::kServeSessionsResumed).add(1);
  if (session.frozen_in_place) {
    // The live object never left memory; just hand it back to the
    // scheduler (the slot was kept across the freeze).
    session.frozen_in_place = false;
    session.state = SessionState::kResident;
    return Reject::kNone;
  }
  if (queue_.size() >= config_.max_queue) return shed(Reject::kQueueFull);
  session.state = SessionState::kQueued;
  queue_.push_back(id);
  return Reject::kNone;
}

std::optional<harness::RunResult> SessionServer::close(
    std::uint64_t id, const std::string& reason) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return std::nullopt;
  Session& session = it->second;
  if (session.state == SessionState::kClosed) return std::nullopt;
  Tenant& entry = tenants_.at(session.tenant);
  harness::RunResult result;
  if (session.state == SessionState::kFinished) {
    result = *session.final_result;
  } else {
    if (session.live != nullptr) {
      result = session.live->result(reason);
    } else {
      // Queued, blob-suspended, or process-tier: rebuild the session from
      // its last state to take a consistent partial result.
      result = materialize(session)->result(reason);
    }
    --entry.stats.open_sessions;
  }
  const bool held_slot = session.state == SessionState::kResident ||
                         session.frozen_in_place;
  if (held_slot) --resident_;
  session.live.reset();
  entry.stats.checkpoint_bytes -= session.saved.size();
  session.saved.clear();
  session.frozen_in_place = false;
  session.state = SessionState::kClosed;
  session.final_result = result;
  ++stats_.closed;
  MetricsRegistry::global().counter(metric::kServeSessionsClosed).add(1);
  return result;
}

void SessionServer::shutdown() {
  shutting_down_ = true;
  for (const std::string& name : tenant_order_) {
    for (const std::uint64_t id : tenants_.at(name).session_ids) {
      Session& session = sessions_.at(id);
      if (session.state == SessionState::kResident) {
        suspend_session(session, /*count_as_quota=*/false);
      }
    }
  }
  pool_.drain();
  while (pool_.running() > 0) pool_.poll(true);
  update_gauges();
}

SessionState SessionServer::state(std::uint64_t id) const {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw std::out_of_range("serve: unknown session id " +
                            std::to_string(id));
  }
  return it->second.state;
}

const harness::RunResult* SessionServer::result(std::uint64_t id) const {
  auto it = sessions_.find(id);
  if (it == sessions_.end() || !it->second.final_result.has_value()) {
    return nullptr;
  }
  return &*it->second.final_result;
}

TenantStats SessionServer::tenant_stats(const std::string& name) const {
  auto it = tenants_.find(name);
  return it == tenants_.end() ? TenantStats{} : it->second.stats;
}

void SessionServer::update_gauges() {
  auto& registry = MetricsRegistry::global();
  registry.gauge(metric::kServeSessionsResident)
      .set(static_cast<double>(resident_));
  registry.gauge(metric::kServeAdmissionQueueDepth)
      .set(static_cast<double>(queue_.size()));
  std::size_t checkpoint_bytes = 0;
  for (const auto& [name, entry] : tenants_) {
    checkpoint_bytes += entry.stats.checkpoint_bytes;
  }
  registry.gauge(metric::kQuotaCheckpointBytes)
      .set(static_cast<double>(checkpoint_bytes));
}

}  // namespace mak::serve
