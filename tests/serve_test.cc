// Tests for the multi-tenant session server (src/serve) and the robustness
// seams it leans on: procpool cancel classification, supervisor re-arming,
// and validated env parsing.
//
// This binary is its own serve-worker executable (the process tier re-execs
// /proc/self/exe), so main() dispatches --serve-worker before gtest runs.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <sys/wait.h>
#include <thread>

#include "apps/catalog.h"
#include "harness/experiment.h"
#include "harness/procpool.h"
#include "harness/supervisor.h"
#include "serve/admission.h"
#include "serve/server.h"
#include "serve/worker.h"
#include "support/env.h"
#include "support/fs.h"
#include "support/json.h"

namespace {

using mak::harness::CrawlerKind;
using mak::harness::FailureClass;
using mak::harness::RunConfig;
using mak::harness::RunResult;
using mak::serve::IsolationTier;
using mak::serve::OpenRequest;
using mak::serve::Reject;
using mak::serve::ServerConfig;
using mak::serve::SessionServer;
using mak::serve::SessionState;
using mak::serve::TenantQuota;

const mak::apps::AppInfo& test_app() {
  static const mak::apps::AppInfo info = *mak::apps::resolve_app("Drupal");
  return info;
}

RunConfig short_config(std::uint64_t seed = 0x5eed) {
  RunConfig config;
  config.budget = 20000;
  config.seed = seed;
  return config;
}

void expect_same_result(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.final_covered_lines, b.final_covered_lines);
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_EQ(a.navigations, b.navigations);
  EXPECT_EQ(a.links_discovered, b.links_discovered);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.injected_errors, b.injected_errors);
  EXPECT_EQ(a.drift_gone_requests, b.drift_gone_requests);
  ASSERT_EQ(a.series.points().size(), b.series.points().size());
  for (std::size_t i = 0; i < a.series.points().size(); ++i) {
    EXPECT_EQ(a.series.points()[i].time, b.series.points()[i].time);
    EXPECT_EQ(a.series.points()[i].covered_lines,
              b.series.points()[i].covered_lines);
  }
}

// -------------------------------------------------------- session server

TEST(SessionServer, RunsManySessionsToCompletion) {
  ServerConfig config;
  config.max_resident = 8;
  config.batch_steps = 4;
  SessionServer server(config);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 30; ++i) {
    OpenRequest request;
    request.tenant = "tenant-" + std::to_string(i % 3);
    request.app = "Drupal";
    request.crawler = "MAK";
    request.config = short_config(0x100 + i);
    const auto outcome = server.open(request);
    ASSERT_TRUE(outcome.admitted());
    ids.push_back(outcome.id);
  }
  server.run_until_idle();
  for (const auto id : ids) {
    EXPECT_EQ(server.state(id), SessionState::kFinished);
    ASSERT_NE(server.result(id), nullptr);
    EXPECT_FALSE(server.result(id)->aborted);
  }
}

TEST(SessionServer, MultiplexedResultMatchesStandaloneRun) {
  const RunConfig config = short_config(0x77);
  const RunResult reference =
      mak::harness::run_once(test_app(), CrawlerKind::kMak, config);

  ServerConfig server_config;
  server_config.max_resident = 2;  // forces eviction churn among 6 sessions
  server_config.batch_steps = 3;
  SessionServer server(server_config);
  std::uint64_t watched = 0;
  for (int i = 0; i < 6; ++i) {
    OpenRequest request;
    request.tenant = "t" + std::to_string(i % 2);
    request.app = "Drupal";
    request.crawler = "MAK";
    request.config = short_config(i == 0 ? 0x77 : 0x900 + i);
    const auto outcome = server.open(request);
    ASSERT_TRUE(outcome.admitted());
    if (i == 0) watched = outcome.id;
  }
  server.run_until_idle();
  ASSERT_EQ(server.state(watched), SessionState::kFinished);
  expect_same_result(*server.result(watched), reference);
  EXPECT_GT(server.stats().evicted, 0u);
}

TEST(SessionServer, AdmissionShedsWithTypedRejections) {
  ServerConfig config;
  config.max_resident = 2;
  config.max_queue = 3;
  SessionServer server(config);
  OpenRequest request;
  request.tenant = "t";
  request.app = "Drupal";
  request.crawler = "MAK";
  request.config = short_config();
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(server.open(request).admitted());
  }
  const auto shed = server.open(request);
  EXPECT_EQ(shed.reject, Reject::kQueueFull);
  EXPECT_EQ(mak::serve::to_string(shed.reject), "queue_full");

  request.app = "NoSuchApp";
  EXPECT_EQ(server.open(request).reject, Reject::kUnknownApp);
  request.app = "Drupal";
  request.crawler = "NoSuchCrawler";
  EXPECT_EQ(server.open(request).reject, Reject::kBadConfig);
  request.crawler = "MAK";
  request.config.budget = 0;
  EXPECT_EQ(server.open(request).reject, Reject::kBadConfig);
  EXPECT_EQ(server.stats().rejected, 4u);
}

TEST(SessionServer, TenantSessionCapIsEnforced) {
  ServerConfig config;
  SessionServer server(config);
  TenantQuota quota;
  quota.max_sessions = 2;
  server.set_tenant_quota("capped", quota);
  OpenRequest request;
  request.tenant = "capped";
  request.app = "Drupal";
  request.crawler = "MAK";
  request.config = short_config();
  EXPECT_TRUE(server.open(request).admitted());
  EXPECT_TRUE(server.open(request).admitted());
  EXPECT_EQ(server.open(request).reject, Reject::kTenantSessions);
  // Other tenants are unaffected.
  request.tenant = "free";
  EXPECT_TRUE(server.open(request).admitted());
}

TEST(SessionServer, QuotaLadderSuspendsAndResumes) {
  ServerConfig config;
  config.batch_steps = 4;
  SessionServer server(config);
  TenantQuota quota;
  quota.max_steps = 6;
  server.set_tenant_quota("metered", quota);
  OpenRequest request;
  request.tenant = "metered";
  request.app = "Drupal";
  request.crawler = "MAK";
  request.config = short_config();
  const auto outcome = server.open(request);
  ASSERT_TRUE(outcome.admitted());
  server.run_until_idle();

  // The quota stopped the session mid-run — suspended, not killed.
  EXPECT_EQ(server.state(outcome.id), SessionState::kSuspended);
  const auto stats = server.tenant_stats("metered");
  EXPECT_LE(stats.steps, 6u);
  EXPECT_GE(stats.suspensions, 1u);
  // Opens are now shed with the quota rejection.
  EXPECT_EQ(server.open(request).reject, Reject::kQuotaExhausted);
  // And so are resumes, until the quota is raised.
  EXPECT_EQ(server.resume(outcome.id), Reject::kQuotaExhausted);
  quota.max_steps = 0;
  server.set_tenant_quota("metered", quota);
  EXPECT_EQ(server.resume(outcome.id), Reject::kNone);
  server.run_until_idle();
  EXPECT_EQ(server.state(outcome.id), SessionState::kFinished);
  EXPECT_FALSE(server.result(outcome.id)->aborted);
}

TEST(SessionServer, SoftQuotaDeprioritizesBeforeSuspending) {
  ServerConfig config;
  config.batch_steps = 1;
  SessionServer server(config);
  TenantQuota quota;
  quota.max_steps = 8;  // soft threshold at 6: deprioritized there first
  server.set_tenant_quota("hog", quota);
  OpenRequest request;
  request.tenant = "hog";
  request.app = "Drupal";
  request.crawler = "MAK";
  request.config = short_config();
  ASSERT_TRUE(server.open(request).admitted());
  server.run_until_idle();
  EXPECT_GE(server.tenant_stats("hog").deprioritized_rounds, 1u);
}

TEST(SessionServer, ExplicitSuspendFreesTheSlotAndResumeRestores) {
  ServerConfig config;
  config.max_resident = 4;
  config.batch_steps = 2;
  SessionServer server(config);
  OpenRequest request;
  request.tenant = "t";
  request.app = "Drupal";
  request.crawler = "MAK";
  request.config = short_config(0x31337);

  const RunConfig reference_config = short_config(0x31337);
  const RunResult reference =
      mak::harness::run_once(test_app(), CrawlerKind::kMak,
                             reference_config);

  const auto outcome = server.open(request);
  ASSERT_TRUE(outcome.admitted());
  server.tick();
  ASSERT_TRUE(server.suspend(outcome.id));
  EXPECT_EQ(server.state(outcome.id), SessionState::kSuspended);
  EXPECT_EQ(server.resident_count(), 0u);
  EXPECT_EQ(server.resume(outcome.id), Reject::kNone);
  server.run_until_idle();
  ASSERT_EQ(server.state(outcome.id), SessionState::kFinished);
  expect_same_result(*server.result(outcome.id), reference);
}

TEST(SessionServer, NonSnapshotSessionsFreezeInPlaceNeverKilled) {
  ServerConfig server_config;
  server_config.batch_steps = 3;
  SessionServer server(server_config);
  OpenRequest request;
  request.tenant = "t";
  request.app = "Drupal";
  request.crawler = "WebExplor";  // cannot snapshot
  request.config = short_config();
  const auto outcome = server.open(request);
  ASSERT_TRUE(outcome.admitted());
  server.tick();
  ASSERT_TRUE(server.suspend(outcome.id));
  EXPECT_EQ(server.state(outcome.id), SessionState::kSuspended);
  // The slot is kept (frozen in place), and the session is resumable.
  EXPECT_EQ(server.resident_count(), 1u);
  EXPECT_EQ(server.resume(outcome.id), Reject::kNone);
  server.run_until_idle();
  EXPECT_EQ(server.state(outcome.id), SessionState::kFinished);
}

TEST(SessionServer, CloseReturnsPartialResultForSuspendedSessions) {
  ServerConfig config;
  config.batch_steps = 2;
  SessionServer server(config);
  OpenRequest request;
  request.tenant = "t";
  request.app = "Drupal";
  request.crawler = "MAK";
  request.config = short_config();
  const auto outcome = server.open(request);
  ASSERT_TRUE(outcome.admitted());
  server.tick();
  ASSERT_TRUE(server.suspend(outcome.id));
  const auto result = server.close(outcome.id, "operator");
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->aborted);
  EXPECT_EQ(result->abort_reason, "operator");
  EXPECT_GT(result->steps, 0u);
  // Double close is a no-op.
  EXPECT_FALSE(server.close(outcome.id).has_value());
}

TEST(SessionServer, ShutdownDrainsWithoutLosingSessions) {
  ServerConfig config;
  config.batch_steps = 3;
  SessionServer server(config);
  OpenRequest request;
  request.tenant = "t";
  request.app = "Drupal";
  request.crawler = "MAK";
  request.config = short_config();
  const auto a = server.open(request);
  const auto b = server.open(request);
  ASSERT_TRUE(a.admitted());
  ASSERT_TRUE(b.admitted());
  server.tick();
  server.shutdown();
  EXPECT_EQ(server.open(request).reject, Reject::kShuttingDown);
  // Every session is still accounted for and closable.
  EXPECT_TRUE(server.close(a.id).has_value());
  EXPECT_TRUE(server.close(b.id).has_value());
}

TEST(SessionServer, JainIndexMeasuresFairness) {
  EXPECT_DOUBLE_EQ(SessionServer::jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(SessionServer::jain_index({0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(SessionServer::jain_index({5.0, 5.0, 5.0}), 1.0);
  EXPECT_NEAR(SessionServer::jain_index({10.0, 0.0}), 0.5, 1e-9);
}

TEST(SessionServer, SchedulingIsFairAcrossEqualTenants) {
  ServerConfig config;
  config.max_resident = 16;
  config.batch_steps = 4;
  SessionServer server(config);
  for (int i = 0; i < 16; ++i) {
    OpenRequest request;
    request.tenant = "tenant-" + std::to_string(i % 4);
    request.app = "Drupal";
    request.crawler = "MAK";
    request.config = short_config(0x40 + i);
    ASSERT_TRUE(server.open(request).admitted());
  }
  for (int round = 0; round < 6; ++round) server.tick();
  std::vector<double> allocations;
  for (int t = 0; t < 4; ++t) {
    allocations.push_back(static_cast<double>(
        server.tenant_stats("tenant-" + std::to_string(t)).steps));
  }
  EXPECT_GE(SessionServer::jain_index(allocations), 0.9);
}

// Regression: one admit pass over a queue longer than max_resident used to
// construct each queued session and evict it again before it ever ran.
TEST(SessionServer, NoSessionIsEvictedBeforeItRuns) {
  ServerConfig config;
  config.max_resident = 2;
  config.batch_steps = 64;  // every 20 s session finishes in one batch
  SessionServer server(config);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    OpenRequest request;
    request.tenant = "t" + std::to_string(i % 2);
    request.app = "Drupal";
    request.crawler = "MAK";
    request.config = short_config(0x600 + i);
    const auto outcome = server.open(request);
    ASSERT_TRUE(outcome.admitted());
    ids.push_back(outcome.id);
  }
  server.run_until_idle();
  for (const auto id : ids) {
    EXPECT_EQ(server.state(id), SessionState::kFinished);
  }
  EXPECT_EQ(server.stats().evicted, 0u);
}

TEST(SessionServer, LateTenantIsAdmittedWhileEarlyTenantFillsEverySlot) {
  ServerConfig config;
  config.max_resident = 3;
  config.batch_steps = 4;
  SessionServer server(config);
  OpenRequest request;
  request.tenant = "a";
  request.app = "Drupal";
  request.crawler = "MAK";
  request.config = short_config();
  request.config.budget = 600000;  // long enough to hold a slot throughout
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(server.open(request).admitted());
  server.tick();
  ASSERT_EQ(server.resident_count(), 3u);

  request.tenant = "b";
  const auto late = server.open(request);
  ASSERT_TRUE(late.admitted());
  server.tick();
  EXPECT_EQ(server.state(late.id), SessionState::kResident);
  EXPECT_GT(server.tenant_stats("b").steps, 0u);
}

// Regression: a session queued behind a slot held by a frozen-in-place
// session can never be admitted; run_until_idle used to tick forever.
TEST(SessionServer, RunUntilIdleReturnsWhenQueuedSessionCannotBeAdmitted) {
  ServerConfig config;
  config.max_resident = 1;
  config.batch_steps = 3;
  SessionServer server(config);
  OpenRequest request;
  request.tenant = "t";
  request.app = "Drupal";
  request.crawler = "WebExplor";  // cannot snapshot: freezes in place
  request.config = short_config();
  const auto frozen = server.open(request);
  ASSERT_TRUE(frozen.admitted());
  server.tick();
  ASSERT_TRUE(server.suspend(frozen.id));
  ASSERT_EQ(server.resident_count(), 1u);

  request.crawler = "MAK";
  const auto waiting = server.open(request);
  ASSERT_TRUE(waiting.admitted());
  EXPECT_EQ(server.run_until_idle(), 0u);
  EXPECT_EQ(server.state(waiting.id), SessionState::kQueued);
  EXPECT_EQ(server.state(frozen.id), SessionState::kSuspended);
  EXPECT_EQ(server.queue_depth(), 1u);
}

// ------------------------------------------------------ process tier

class ProcessTierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scratch_ = ::testing::TempDir() + "serve_scratch";
    mak::support::fs::default_fs().create_directories(scratch_);
  }
  std::string scratch_;
};

TEST_F(ProcessTierTest, ProcessSessionMatchesThreadSession) {
  ServerConfig config;
  config.batch_steps = 5;
  SessionServer server(config, scratch_);
  OpenRequest request;
  request.tenant = "t";
  request.app = "Drupal";
  request.crawler = "MAK";
  request.config = short_config(0xbeef);
  const auto thread_session = server.open(request);
  request.tier = IsolationTier::kProcess;
  const auto process_session = server.open(request);
  ASSERT_TRUE(thread_session.admitted());
  ASSERT_TRUE(process_session.admitted());
  server.run_until_idle();
  ASSERT_EQ(server.state(thread_session.id), SessionState::kFinished);
  ASSERT_EQ(server.state(process_session.id), SessionState::kFinished);
  expect_same_result(*server.result(process_session.id),
                     *server.result(thread_session.id));
  EXPECT_GT(server.stats().worker_dispatches, 0u);
}

// Regression: session ids travel to the worker and back inside the result
// envelope; ids whose decimal and hex spellings differ (>= 10) once failed
// envelope validation and quarantined every process session at soak scale.
TEST_F(ProcessTierTest, DoubleDigitSessionIdsRoundTripThroughWorkers) {
  ServerConfig config;
  config.batch_steps = 5;
  SessionServer server(config, scratch_);
  OpenRequest request;
  request.tenant = "t";
  request.app = "Drupal";
  request.crawler = "MAK";
  request.config = short_config(0xbeef);
  const auto thread_session = server.open(request);
  ASSERT_TRUE(thread_session.admitted());
  // Burn ids 2..14 so the process session lands on id 15 (0xf != "15").
  while (server.session_count() < 14) {
    ASSERT_TRUE(server.open(request).admitted());
  }
  request.tier = IsolationTier::kProcess;
  const auto process_session = server.open(request);
  ASSERT_TRUE(process_session.admitted());
  ASSERT_GE(process_session.id, 10u);
  server.run_until_idle();
  ASSERT_EQ(server.state(process_session.id), SessionState::kFinished);
  EXPECT_EQ(server.stats().quarantined, 0u);
  EXPECT_EQ(server.stats().worker_failures, 0u);
  expect_same_result(*server.result(process_session.id),
                     *server.result(thread_session.id));
}

TEST_F(ProcessTierTest, ChaosKillIsContainedAndRetriedIdentically) {
  ServerConfig config;
  config.batch_steps = 5;
  config.worker_attempts = 3;
  SessionServer server(config, scratch_);
  OpenRequest request;
  request.tenant = "t";
  request.app = "Drupal";
  request.crawler = "MAK";
  request.config = short_config(0xbeef);
  const auto clean = server.open(request);
  request.tier = IsolationTier::kProcess;
  request.kill_at_step = 3;  // SIGKILL mid-batch, then a clean retry
  const auto chaotic = server.open(request);
  ASSERT_TRUE(clean.admitted());
  ASSERT_TRUE(chaotic.admitted());
  server.run_until_idle();
  ASSERT_EQ(server.state(chaotic.id), SessionState::kFinished);
  expect_same_result(*server.result(chaotic.id), *server.result(clean.id));
  EXPECT_GE(server.stats().worker_failures, 1u);
  EXPECT_GE(server.stats().worker_retries, 1u);
}

TEST_F(ProcessTierTest, ProcessTierRequiresSnapshotCapableCrawler) {
  ServerConfig config;
  SessionServer server(config, scratch_);
  OpenRequest request;
  request.tenant = "t";
  request.app = "Drupal";
  request.crawler = "WebExplor";
  request.config = short_config();
  request.tier = IsolationTier::kProcess;
  EXPECT_EQ(server.open(request).reject, Reject::kBadConfig);
}

TEST_F(ProcessTierTest, CorruptEnvelopeIsRejected) {
  const std::string path = scratch_ + "/corrupt.json";
  ASSERT_TRUE(mak::support::fs::write_file_atomic_verified(
      mak::support::fs::default_fs(), path, "{\"magic\":\"nope\"}"));
  EXPECT_FALSE(mak::serve::decode_serve_outcome(path, 1, 0).has_value());
  EXPECT_FALSE(mak::serve::decode_serve_outcome(scratch_ + "/missing", 1, 0)
                   .has_value());
}

// --------------------------------------------- procpool classification

TEST(ClassifyExit, CoversEveryBranch) {
  const auto exited = [](int code) { return code << 8; };
  // Clean exit.
  EXPECT_EQ(mak::harness::classify_exit(exited(0), false),
            FailureClass::kNone);
  // Worker-reported classes.
  EXPECT_EQ(mak::harness::classify_exit(exited(mak::harness::kExitOom), false),
            FailureClass::kOom);
  EXPECT_EQ(mak::harness::classify_exit(
                exited(mak::harness::kExitTransient), false),
            FailureClass::kTransient);
  EXPECT_EQ(mak::harness::classify_exit(exited(1), false),
            FailureClass::kTransient);
  // Signals (waitpid status low bits).
  EXPECT_EQ(mak::harness::classify_exit(SIGSEGV, false),
            FailureClass::kCrash);
  EXPECT_EQ(mak::harness::classify_exit(SIGABRT, false),
            FailureClass::kCrash);
  EXPECT_EQ(mak::harness::classify_exit(SIGKILL, false), FailureClass::kOom);
  EXPECT_EQ(mak::harness::classify_exit(SIGXCPU, false),
            FailureClass::kTimeout);
  // The parent deadline forces kTimeout however the kill was reported.
  EXPECT_EQ(mak::harness::classify_exit(SIGKILL, true),
            FailureClass::kTimeout);
  // A deliberate cancel forces kCancelled — and wins over the deadline.
  EXPECT_EQ(mak::harness::classify_exit(SIGKILL, false, true),
            FailureClass::kCancelled);
  EXPECT_EQ(mak::harness::classify_exit(SIGKILL, true, true),
            FailureClass::kCancelled);
  EXPECT_EQ(mak::harness::to_string(FailureClass::kCancelled), "cancelled");
}

TEST(ProcPool, CancelReportsCancelledNotOom) {
  mak::harness::ProcPool pool("/bin/sleep");
  mak::harness::WorkerSpec spec;
  spec.args = {"30"};
  const int slot = pool.spawn(spec, {});
  ASSERT_GE(slot, 0);
  ASSERT_TRUE(pool.cancel(slot));
  EXPECT_FALSE(pool.cancel(slot));  // second cancel is a no-op
  bool reaped = false;
  while (!reaped) {
    for (const auto& exit : pool.poll(true)) {
      if (exit.slot == slot) {
        EXPECT_EQ(exit.outcome.failure, FailureClass::kCancelled);
        reaped = true;
      }
    }
  }
}

TEST(ProcPool, DrainCancelsEveryWorker) {
  mak::harness::ProcPool pool("/bin/sleep");
  mak::harness::WorkerSpec spec;
  spec.args = {"30"};
  ASSERT_GE(pool.spawn(spec, {}), 0);
  ASSERT_GE(pool.spawn(spec, {}), 0);
  pool.drain();
  std::size_t cancelled = 0;
  while (pool.running() > 0) {
    for (const auto& exit : pool.poll(true)) {
      if (exit.outcome.failure == FailureClass::kCancelled) ++cancelled;
    }
  }
  EXPECT_EQ(cancelled, 2u);
}

// ----------------------------------------------------- supervisor rearm

TEST(Supervisor, StallBoundaryIsExclusive) {
  // A gap of exactly heartbeat_ms is still on time; only strictly greater
  // gaps stall.
  EXPECT_FALSE(mak::harness::RunSupervisor::stall_exceeded(50, 50));
  EXPECT_FALSE(mak::harness::RunSupervisor::stall_exceeded(0, 50));
  EXPECT_TRUE(mak::harness::RunSupervisor::stall_exceeded(51, 50));
}

TEST(Supervisor, RearmDetectsTheNextStallToo) {
  mak::harness::SupervisorConfig config;
  config.heartbeat_ms = 30;
  mak::harness::RunSupervisor supervisor(config);
  const auto wait_for_stall = [&] {
    for (int i = 0; i < 200 && !supervisor.stalled(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return supervisor.stalled();
  };
  ASSERT_TRUE(wait_for_stall());
  EXPECT_EQ(supervisor.should_abort(1), mak::harness::kAbortStalled);
  supervisor.rearm();
  EXPECT_FALSE(supervisor.stalled());
  EXPECT_EQ(supervisor.should_abort(2), "");
  // Without rearm the watchdog would be dead now; with it, the next stall
  // is flagged as well.
  ASSERT_TRUE(wait_for_stall());
}

// ------------------------------------------------- validated env knobs

class EnvValidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mak::support::env::set_failure_sink(&failure_);
  }
  void TearDown() override {
    mak::support::env::set_failure_sink(nullptr);
    ::unsetenv("MAK_TEST_KNOB");
  }
  std::string failure_;
};

TEST_F(EnvValidationTest, UnsetAndEmptyFallBack) {
  ::unsetenv("MAK_TEST_KNOB");
  EXPECT_EQ(mak::support::env::require_int("MAK_TEST_KNOB", 7, 0, 100), 7);
  ::setenv("MAK_TEST_KNOB", "", 1);
  EXPECT_EQ(mak::support::env::require_int("MAK_TEST_KNOB", 7, 0, 100), 7);
}

TEST_F(EnvValidationTest, ValidValueParses) {
  ::setenv("MAK_TEST_KNOB", "42", 1);
  EXPECT_EQ(mak::support::env::require_int("MAK_TEST_KNOB", 7, 0, 100), 42);
  EXPECT_EQ(mak::support::env::require_count("MAK_TEST_KNOB", 7, 100), 42u);
}

TEST_F(EnvValidationTest, GarbageFailsFastNamingTheRange) {
  ::setenv("MAK_TEST_KNOB", "nonsense", 1);
  EXPECT_THROW(mak::support::env::require_int("MAK_TEST_KNOB", 7, 0, 100),
               std::invalid_argument);
  EXPECT_NE(failure_.find("MAK_TEST_KNOB"), std::string::npos);
  EXPECT_NE(failure_.find("[0, 100]"), std::string::npos);
}

TEST_F(EnvValidationTest, OutOfRangeFailsFastNamingTheRange) {
  ::setenv("MAK_TEST_KNOB", "-3", 1);
  EXPECT_THROW(mak::support::env::require_int("MAK_TEST_KNOB", 7, 0, 100),
               std::invalid_argument);
  EXPECT_NE(failure_.find("out of range"), std::string::npos);
  ::setenv("MAK_TEST_KNOB", "0", 1);
  // require_count's floor is 1: zero workers can run nothing.
  EXPECT_THROW(mak::support::env::require_count("MAK_TEST_KNOB", 7, 100),
               std::invalid_argument);
}

TEST_F(EnvValidationTest, ProtocolKnobFailsFastNamingTheRange) {
  // A typo must not silently run the paper's default protocol.
  ::setenv("MAK_REPS", "garbage", 1);
  EXPECT_THROW(mak::harness::protocol_from_env(), std::invalid_argument);
  EXPECT_NE(failure_.find("MAK_REPS"), std::string::npos);
  EXPECT_NE(failure_.find("[1, 100000]"), std::string::npos);
  ::setenv("MAK_REPS", "0", 1);
  EXPECT_THROW(mak::harness::protocol_from_env(), std::invalid_argument);
  ::setenv("MAK_REPS", "", 1);
  EXPECT_EQ(mak::harness::protocol_from_env().repetitions, 10u);
  ::unsetenv("MAK_REPS");
}

TEST_F(EnvValidationTest, ThreadsKnobFailsFastNamingTheRange) {
  ::setenv("MAK_THREADS", "4x", 1);
  EXPECT_THROW(mak::harness::run_repeated(test_app(), CrawlerKind::kMak,
                                          short_config(), 2),
               std::invalid_argument);
  EXPECT_NE(failure_.find("MAK_THREADS"), std::string::npos);
  EXPECT_NE(failure_.find("[1, 4096]"), std::string::npos);
  ::unsetenv("MAK_THREADS");
}

TEST_F(EnvValidationTest, ServeConfigReadsValidatedKnobs) {
  ::setenv("MAK_SERVE_RESIDENT", "99", 1);
  ::setenv("MAK_SERVE_BATCH", "17", 1);
  const ServerConfig config = mak::serve::server_from_env();
  EXPECT_EQ(config.max_resident, 99u);
  EXPECT_EQ(config.batch_steps, 17u);
  ::setenv("MAK_SERVE_RESIDENT", "bogus", 1);
  EXPECT_THROW(mak::serve::server_from_env(), std::invalid_argument);
  ::unsetenv("MAK_SERVE_RESIDENT");
  ::unsetenv("MAK_SERVE_BATCH");
}

}  // namespace

int main(int argc, char** argv) {
  if (mak::serve::is_serve_worker_invocation(argc, argv)) {
    return mak::serve::serve_worker_main(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
