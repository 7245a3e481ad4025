// Canonical catalog of every metric name registered by the framework.
//
// All instrumentation sites pull their names from this header — never from
// inline string literals — so the set of registered metrics is greppable in
// one place. tools/check_docs.sh enforces that every name listed here is
// cataloged in docs/observability.md (and vice versa); add the documentation
// row in the same change that adds a constant.
//
// Naming convention: `<subsystem>.<noun>[.<qualifier>]`, lower-case, dots as
// separators. Timing-span histograms come in pairs: `<base>.wall_us` (real
// CPU cost, microseconds) and `<base>.virtual_ms` (simulated cost charged to
// the run's support::SimClock, milliseconds).
#pragma once

#include <string_view>

namespace mak::support::metric {

// --- httpsim: the virtual network ---------------------------------------
inline constexpr std::string_view kHttpsimFetches = "httpsim.fetches";
inline constexpr std::string_view kHttpsimRequests = "httpsim.requests";
inline constexpr std::string_view kHttpsimRedirects = "httpsim.redirects";
inline constexpr std::string_view kHttpsimNetworkErrors =
    "httpsim.network_errors";
inline constexpr std::string_view kHttpsimFetchVirtualMs =
    "httpsim.fetch.virtual_ms";
inline constexpr std::string_view kHttpsimFaultInjectedErrors =
    "httpsim.fault.injected_errors";
inline constexpr std::string_view kHttpsimFaultInjectedDrops =
    "httpsim.fault.injected_drops";
inline constexpr std::string_view kHttpsimFaultLatencySpikes =
    "httpsim.fault.latency_spikes";
inline constexpr std::string_view kHttpsimFaultWindowRequests =
    "httpsim.fault.window_requests";

// --- core: browser, crawl loop, frontier --------------------------------
inline constexpr std::string_view kBrowserInteractions = "browser.interactions";
inline constexpr std::string_view kBrowserNavigations = "browser.navigations";
inline constexpr std::string_view kBrowserRetries = "browser.retries";
inline constexpr std::string_view kBrowserTransportFailures =
    "browser.transport_failures";
inline constexpr std::string_view kBrowserParseCacheHits =
    "browser.parse_cache.hits";
inline constexpr std::string_view kBrowserParseCacheMisses =
    "browser.parse_cache.misses";
inline constexpr std::string_view kBrowserParseCacheEntries =
    "browser.parse_cache.entries";

inline constexpr std::string_view kCrawlerSteps = "crawler.steps";
inline constexpr std::string_view kCrawlerRecoveries = "crawler.recoveries";
inline constexpr std::string_view kCrawlerReward = "crawler.reward";
inline constexpr std::string_view kCrawlerStepWallUs = "crawler.step.wall_us";
inline constexpr std::string_view kCrawlerStepVirtualMs =
    "crawler.step.virtual_ms";

inline constexpr std::string_view kFrontierPushes = "frontier.pushes";
inline constexpr std::string_view kFrontierDuplicates = "frontier.duplicates";
inline constexpr std::string_view kFrontierTakes = "frontier.takes";
inline constexpr std::string_view kFrontierRequeues = "frontier.requeues";
inline constexpr std::string_view kFrontierSize = "frontier.size";
inline constexpr std::string_view kFrontierLowestLevel =
    "frontier.lowest_level";
inline constexpr std::string_view kFrontierTakeLevel = "frontier.take.level";
inline constexpr std::string_view kFrontierDepthL0 = "frontier.depth.l0";
inline constexpr std::string_view kFrontierDepthL1 = "frontier.depth.l1";
inline constexpr std::string_view kFrontierDepthL2 = "frontier.depth.l2";
inline constexpr std::string_view kFrontierDepthL3 = "frontier.depth.l3";
inline constexpr std::string_view kFrontierDepthRest = "frontier.depth.rest";
inline constexpr std::string_view kFrontierInternActions =
    "frontier.intern.actions";

inline constexpr std::string_view kMakArmHead = "mak.arm.head";
inline constexpr std::string_view kMakArmTail = "mak.arm.tail";
inline constexpr std::string_view kMakArmRandom = "mak.arm.random";
inline constexpr std::string_view kMakFailedInteractions =
    "mak.failed_interactions";

// --- rl: bandit policies and reward shaping -----------------------------
inline constexpr std::string_view kExp31Updates = "rl.exp31.updates";
inline constexpr std::string_view kExp31WeightResets = "rl.exp31.weight_resets";
inline constexpr std::string_view kExp31Epoch = "rl.exp31.epoch";
inline constexpr std::string_view kExp31Gamma = "rl.exp31.gamma";
inline constexpr std::string_view kExp31ProbArm0 = "rl.exp31.prob.arm0";
inline constexpr std::string_view kExp31ProbArm1 = "rl.exp31.prob.arm1";
inline constexpr std::string_view kExp31ProbArm2 = "rl.exp31.prob.arm2";
inline constexpr std::string_view kExp3Updates = "rl.exp3.updates";

inline constexpr std::string_view kRewardObservations = "rl.reward.observations";
inline constexpr std::string_view kRewardMean = "rl.reward.mean";
inline constexpr std::string_view kRewardStddev = "rl.reward.stddev";
inline constexpr std::string_view kRewardShaped = "rl.reward.shaped";

// --- rl: cumulative-regret accounting (docs/policies.md) ----------------
inline constexpr std::string_view kRegretUpdates = "regret.updates";
inline constexpr std::string_view kRegretRealizedGain = "regret.realized_gain";
inline constexpr std::string_view kRegretBestArmGain = "regret.best_arm_gain";
inline constexpr std::string_view kRegretWeak = "regret.weak";
inline constexpr std::string_view kRegretCumulative = "regret.cumulative";

// --- webapp: nonstationary drift layer (docs/fault_injection.md) --------
inline constexpr std::string_view kDriftRequests = "drift.requests";
inline constexpr std::string_view kDriftGoneRequests = "drift.gone_requests";
inline constexpr std::string_view kDriftRewrittenLinks =
    "drift.rewritten_links";
inline constexpr std::string_view kDriftChurnedLinks = "drift.churned_links";
inline constexpr std::string_view kDriftExpiredSessions =
    "drift.expired_sessions";
inline constexpr std::string_view kDriftStormRequests = "drift.storm_requests";
inline constexpr std::string_view kDriftDeployGeneration =
    "drift.deploy_generation";

// --- harness: experiment protocol ---------------------------------------
inline constexpr std::string_view kHarnessRuns = "harness.runs";
inline constexpr std::string_view kHarnessRunWallUs = "harness.run.wall_us";
inline constexpr std::string_view kHarnessRunVirtualMs =
    "harness.run.virtual_ms";

// --- harness: checkpoint/recovery and the run supervisor ----------------
inline constexpr std::string_view kCheckpointWrites = "checkpoint.writes";
inline constexpr std::string_view kCheckpointRestores = "checkpoint.restores";
inline constexpr std::string_view kCheckpointInvalidFiles =
    "checkpoint.invalid_files";
inline constexpr std::string_view kCheckpointWriteWallUs =
    "checkpoint.write.wall_us";
inline constexpr std::string_view kCheckpointWriteFailures =
    "checkpoint.write_failures";
inline constexpr std::string_view kSupervisorStalls = "supervisor.stalls";
inline constexpr std::string_view kSupervisorAborts = "supervisor.aborts";

// --- support: injectable filesystem / disk-fault layer ------------------
inline constexpr std::string_view kFsWrites = "fs.writes";
inline constexpr std::string_view kFsInjectedFaults = "fs.injected_faults";

// --- harness: process pool and run orchestrator -------------------------
inline constexpr std::string_view kProcpoolSpawns = "procpool.spawns";
inline constexpr std::string_view kProcpoolFailures = "procpool.failures";
inline constexpr std::string_view kProcpoolRetries = "procpool.retries";
inline constexpr std::string_view kOrchestratorFailedRepetitions =
    "orchestrator.failed_repetitions";
inline constexpr std::string_view kOrchestratorFailureBundles =
    "orchestrator.failure_bundles";

// --- serve: multi-tenant session server (docs/robustness.md) ------------
inline constexpr std::string_view kServeSessionsOpened =
    "serve.sessions.opened";
inline constexpr std::string_view kServeSessionsClosed =
    "serve.sessions.closed";
inline constexpr std::string_view kServeSessionsFinished =
    "serve.sessions.finished";
inline constexpr std::string_view kServeSessionsResident =
    "serve.sessions.resident";
inline constexpr std::string_view kServeSessionsSuspended =
    "serve.sessions.suspended";
inline constexpr std::string_view kServeSessionsResumed =
    "serve.sessions.resumed";
inline constexpr std::string_view kServeSessionsEvicted =
    "serve.sessions.evicted";
inline constexpr std::string_view kServeAdmissionRejections =
    "serve.admission.rejections";
inline constexpr std::string_view kServeAdmissionQueueDepth =
    "serve.admission.queue_depth";
inline constexpr std::string_view kServeSteps = "serve.steps";
inline constexpr std::string_view kServeTicks = "serve.ticks";
inline constexpr std::string_view kServeStallRecoveries =
    "serve.stall_recoveries";
inline constexpr std::string_view kServeWorkerDispatches =
    "serve.worker.dispatches";
inline constexpr std::string_view kServeWorkerFailures =
    "serve.worker.failures";
inline constexpr std::string_view kServeWorkerRetries = "serve.worker.retries";
inline constexpr std::string_view kServeWorkerCancelled =
    "serve.worker.cancelled";

// --- serve: per-tenant resource quotas ----------------------------------
inline constexpr std::string_view kQuotaDeprioritized = "quota.deprioritized";
inline constexpr std::string_view kQuotaSuspensions = "quota.suspensions";
inline constexpr std::string_view kQuotaRejections = "quota.rejections";
inline constexpr std::string_view kQuotaCheckpointBytes =
    "quota.checkpoint_bytes";

}  // namespace mak::support::metric
