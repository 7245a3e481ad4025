// Crash-resilient checkpoint/resume (docs/robustness.md): component
// round-trips, checkpoint file integrity (corruption fallback), supervisor
// budgets/stall detection, and the central guarantee — a crashed-and-resumed
// experiment produces byte-identical results to an uninterrupted one.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/catalog.h"
#include "core/frontier.h"
#include "core/link_ledger.h"
#include "harness/checkpoint.h"
#include "harness/crawl_run.h"
#include "harness/experiment.h"
#include "harness/json_report.h"
#include "httpsim/fault.h"
#include "rl/epsilon_greedy.h"
#include "rl/exp3.h"
#include "rl/reward.h"
#include "rl/thompson.h"
#include "rl/ucb.h"
#include "support/metrics.h"
#include "support/snapshot.h"
#include "url/url.h"

namespace mak::harness {
namespace {

namespace fs = std::filesystem;
using support::SnapshotError;
using support::json::dump;

RunConfig quick_config(std::uint64_t seed = 0x5eed) {
  RunConfig config;
  config.budget = 3 * support::kMillisPerMinute;
  config.sample_interval = 15 * support::kMillisPerSecond;
  config.seed = seed;
  return config;
}

const apps::AppInfo& info_of(const std::string& name) {
  for (const auto& info : apps::app_catalog()) {
    if (info.name == name) return info;
  }
  throw std::runtime_error("unknown app " + name);
}

// Fresh scratch directory per test; removed up front so reruns start clean.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("mak_ckpt_" + name);
  fs::remove_all(dir);
  return dir.string();
}

std::string state_bytes(const RunResult& result) {
  return dump(result_to_state(result));
}

void expect_identical_runs(const std::vector<RunResult>& actual,
                           const std::vector<RunResult>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t rep = 0; rep < expected.size(); ++rep) {
    EXPECT_EQ(state_bytes(actual[rep]), state_bytes(expected[rep]))
        << "repetition " << rep << " diverged";
    EXPECT_EQ(run_to_json(actual[rep], true), run_to_json(expected[rep], true))
        << "repetition " << rep << " report diverged";
  }
}

std::vector<fs::path> checkpoint_files(const std::string& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

// ----------------------------------------------------- policy round-trips

// Drive a policy, snapshot it, restore into a twin, and check the twin
// replays the exact same choose/update trajectory.
void expect_policy_roundtrip(rl::BanditPolicy& original,
                             rl::BanditPolicy& restored) {
  support::Rng drive(42);
  for (int i = 0; i < 60; ++i) {
    const std::size_t arm = original.choose(drive);
    original.update(arm, static_cast<double>(i % 7) / 7.0);
  }
  restored.load_state(original.save_state());
  EXPECT_EQ(dump(original.save_state()), dump(restored.save_state()));
  support::Rng rng_a(9);
  support::Rng rng_b(9);
  for (int i = 0; i < 40; ++i) {
    const std::size_t arm_a = original.choose(rng_a);
    const std::size_t arm_b = restored.choose(rng_b);
    ASSERT_EQ(arm_a, arm_b) << "post-restore divergence at step " << i;
    const double reward = static_cast<double>(i % 5) / 5.0;
    original.update(arm_a, reward);
    restored.update(arm_b, reward);
  }
  EXPECT_EQ(dump(original.save_state()), dump(restored.save_state()));
}

TEST(PolicySnapshotTest, Exp31RoundTrips) {
  rl::Exp31 original(3);
  rl::Exp31 restored(3);
  expect_policy_roundtrip(original, restored);
}

TEST(PolicySnapshotTest, Exp3RoundTrips) {
  rl::Exp3 original(3, 0.2);
  rl::Exp3 restored(3, 0.2);
  expect_policy_roundtrip(original, restored);
}

TEST(PolicySnapshotTest, EpsilonGreedyRoundTrips) {
  rl::EpsilonGreedy original(3, 0.1);
  rl::EpsilonGreedy restored(3, 0.1);
  expect_policy_roundtrip(original, restored);
}

TEST(PolicySnapshotTest, Ucb1RoundTrips) {
  rl::Ucb1 original(3);
  rl::Ucb1 restored(3);
  expect_policy_roundtrip(original, restored);
}

TEST(PolicySnapshotTest, ThompsonRoundTrips) {
  rl::ThompsonSampling original(3);
  rl::ThompsonSampling restored(3);
  expect_policy_roundtrip(original, restored);
}

TEST(PolicySnapshotTest, RejectsForeignPolicyState) {
  rl::Exp31 exp31(3);
  rl::EpsilonGreedy greedy(3, 0.1);
  EXPECT_THROW(greedy.load_state(exp31.save_state()), SnapshotError);
}

TEST(PolicySnapshotTest, RejectsConfigMismatch) {
  rl::Exp3 narrow(3, 0.2);
  rl::Exp3 different_gamma(3, 0.3);
  EXPECT_THROW(different_gamma.load_state(narrow.save_state()), SnapshotError);
}

// ----------------------------------------------------- reward round-trips

TEST(RewardSnapshotTest, StandardizedRewardRoundTrips) {
  rl::StandardizedReward original;
  for (int i = 0; i < 30; ++i) {
    original.shape(static_cast<double>(i % 11));
  }
  rl::StandardizedReward restored;
  restored.load_state(original.save_state());
  for (int i = 0; i < 20; ++i) {
    const double raw = static_cast<double>((i * 3) % 7);
    EXPECT_DOUBLE_EQ(original.shape(raw), restored.shape(raw));
  }
  EXPECT_EQ(dump(original.save_state()), dump(restored.save_state()));
}

TEST(RewardSnapshotTest, CuriosityRewardRoundTrips) {
  rl::CuriosityReward original;
  for (std::uint64_t key = 0; key < 25; ++key) {
    original.visit(key % 6);
  }
  rl::CuriosityReward restored;
  restored.load_state(original.save_state());
  for (std::uint64_t key = 0; key < 12; ++key) {
    EXPECT_DOUBLE_EQ(original.visit(key % 6), restored.visit(key % 6));
  }
  EXPECT_EQ(dump(original.save_state()), dump(restored.save_state()));
}

// ------------------------------------------- frontier / ledger round-trips

core::ResolvedAction make_action(const std::string& path) {
  core::ResolvedAction action;
  action.element.kind = html::InteractableKind::kLink;
  action.element.target = path;
  action.element.text = "link to " + path;
  url::Url target;
  target.scheme = "http";
  target.host = "app.test";
  target.path = path;
  action.target = url::normalized(target);
  return action;
}

TEST(FrontierSnapshotTest, RoundTripsAndReplaysTakeSequence) {
  core::LeveledDeque original;
  for (int i = 0; i < 12; ++i) {
    original.push(make_action("/page" + std::to_string(i)));
  }
  support::Rng churn(5);
  for (int i = 0; i < 7; ++i) {
    const auto taken = original.take(core::Arm::kRandom, churn);
    ASSERT_TRUE(taken.has_value());
    original.requeue(*taken);
  }
  // In-flight element: taken (promoted in level_of_) but not yet requeued.
  const auto in_flight = original.take(core::Arm::kHead, churn);
  ASSERT_TRUE(in_flight.has_value());

  core::LeveledDeque restored;
  restored.load_state(original.save_state());
  EXPECT_EQ(dump(original.save_state()), dump(restored.save_state()));
  EXPECT_EQ(original.size(), restored.size());
  EXPECT_EQ(original.level_count(), restored.level_count());

  original.requeue(*in_flight);
  restored.requeue(*in_flight);
  support::Rng rng_a(99);
  support::Rng rng_b(99);
  for (int i = 0; i < 25; ++i) {
    const auto arm = static_cast<core::Arm>(i % core::kArmCount);
    const auto taken_a = original.take(arm, rng_a);
    const auto taken_b = restored.take(arm, rng_b);
    ASSERT_EQ(taken_a.has_value(), taken_b.has_value());
    if (!taken_a.has_value()) break;
    EXPECT_EQ(taken_a->describe(), taken_b->describe());
    EXPECT_EQ(taken_a->key(), taken_b->key());
    original.requeue(*taken_a);
    restored.requeue(*taken_b);
  }
  EXPECT_EQ(dump(original.save_state()), dump(restored.save_state()));
}

TEST(FrontierSnapshotTest, InFlightRequeueVariantsSurviveReload) {
  // An element in flight at save time exists only in the key->level table;
  // its bytes must be re-internable through any of the three requeue paths.
  for (int variant = 0; variant < 3; ++variant) {
    core::LeveledDeque original;
    for (int i = 0; i < 6; ++i) {
      original.push(make_action("/page" + std::to_string(i)));
    }
    support::Rng churn(11);
    for (int i = 0; i < 9; ++i) {
      const auto taken = original.take(core::Arm::kTail, churn);
      ASSERT_TRUE(taken.has_value());
      original.requeue(*taken);
    }
    const auto in_flight = original.take(core::Arm::kHead, churn);
    ASSERT_TRUE(in_flight.has_value());

    core::LeveledDeque restored;
    restored.load_state(original.save_state());
    switch (variant) {
      case 0:
        original.requeue(*in_flight);
        restored.requeue(*in_flight);
        break;
      case 1:
        original.requeue_same(*in_flight);
        restored.requeue_same(*in_flight);
        break;
      default:
        original.requeue_flat(*in_flight);
        restored.requeue_flat(*in_flight);
        break;
    }
    EXPECT_EQ(dump(original.save_state()), dump(restored.save_state()))
        << "variant " << variant;
    EXPECT_EQ(original.size(), restored.size());
    EXPECT_EQ(original.interned_actions(), restored.interned_actions());
  }
}

TEST(FrontierSnapshotTest, RejectsTamperedLevelTable) {
  core::LeveledDeque frontier;
  frontier.push(make_action("/a"));
  frontier.push(make_action("/b"));
  auto state = frontier.save_state();
  // Claim a queued element sits at a different level than the deques say.
  auto object = state.as_object();
  auto& level_of = object.at("level_of");
  auto pairs = level_of.as_array();
  auto pair = pairs.at(0).as_array();
  pair.at(1) = support::json::Value(3.0);
  pairs.at(0) = support::json::Value(std::move(pair));
  object.at("level_of") = support::json::Value(std::move(pairs));
  core::LeveledDeque restored;
  EXPECT_THROW(restored.load_state(support::json::Value(std::move(object))),
               SnapshotError);
}

TEST(LinkLedgerSnapshotTest, RoundTrips) {
  core::LinkLedger original;
  for (int i = 0; i < 9; ++i) {
    url::Url target;
    target.scheme = "http";
    target.host = "app.test";
    target.path = "/link" + std::to_string(i % 6);
    original.absorb_url(target);
  }
  core::LinkLedger restored;
  restored.load_state(original.save_state());
  EXPECT_EQ(restored.distinct_links(), original.distinct_links());
  EXPECT_EQ(dump(original.save_state()), dump(restored.save_state()));
}

TEST(LinkLedgerSnapshotTest, LargeLedgerRoundTripsThroughInterner) {
  // Enough links to force several interner growth cycles; the restored
  // ledger must dedup exactly like the original and serialize identically.
  core::LinkLedger original;
  for (int i = 0; i < 3000; ++i) {
    url::Url target;
    target.scheme = "http";
    target.host = "app.test";
    target.path = "/deep/link" + std::to_string(i % 2100);
    target.fragment = "frag" + std::to_string(i);  // must not affect identity
    original.absorb_url(target);
  }
  EXPECT_EQ(original.distinct_links(), 2100u);
  core::LinkLedger restored;
  restored.load_state(original.save_state());
  EXPECT_EQ(restored.distinct_links(), original.distinct_links());
  EXPECT_EQ(dump(original.save_state()), dump(restored.save_state()));
  url::Url known;
  known.scheme = "http";
  known.host = "app.test";
  known.path = "/deep/link7";
  EXPECT_FALSE(restored.absorb_url(known));
  url::Url fresh = known;
  fresh.path = "/deep/other";
  EXPECT_TRUE(restored.absorb_url(fresh));
}

// ------------------------------------------------ fault injector round-trip

TEST(FaultInjectorSnapshotTest, ReplaysIdenticalFaultSequence) {
  const httpsim::FaultProfile profile = httpsim::fault_profile_heavy();
  support::SimClock clock;
  httpsim::FaultInjector original(profile, 0xfeed, clock);
  httpsim::Request request;
  for (int i = 0; i < 40; ++i) {
    clock.advance(500);
    original.decide(request);
  }
  httpsim::FaultInjector restored(profile, 0x1, clock);
  restored.load_state(original.save_state());
  EXPECT_EQ(restored.counters().requests_seen,
            original.counters().requests_seen);
  for (int i = 0; i < 40; ++i) {
    clock.advance(500);
    const auto decision_a = original.decide(request);
    const auto decision_b = restored.decide(request);
    EXPECT_EQ(static_cast<int>(decision_a.kind),
              static_cast<int>(decision_b.kind));
    EXPECT_EQ(decision_a.status, decision_b.status);
    EXPECT_EQ(decision_a.extra_latency_ms, decision_b.extra_latency_ms);
  }
  EXPECT_EQ(dump(original.save_state()), dump(restored.save_state()));
}

TEST(FaultInjectorSnapshotTest, RejectsDifferentProfile) {
  support::SimClock clock;
  httpsim::FaultInjector heavy(httpsim::fault_profile_heavy(), 1, clock);
  httpsim::FaultInjector light(httpsim::fault_profile_light(), 1, clock);
  EXPECT_THROW(light.load_state(heavy.save_state()), SnapshotError);
}

// ------------------------------------------------------ RunResult codec

TEST(RunResultCodecTest, RoundTripsEveryField) {
  RunConfig config = quick_config();
  config.fault = httpsim::fault_profile_light();
  const RunResult original =
      run_once(info_of("AddressBook"), CrawlerKind::kMak, config);
  const RunResult decoded = result_from_state(result_to_state(original));
  EXPECT_EQ(state_bytes(decoded), state_bytes(original));
  EXPECT_EQ(run_to_json(decoded, true), run_to_json(original, true));
  EXPECT_EQ(decoded.covered.count(), original.covered.count());
}

TEST(RunResultCodecTest, RejectsMalformedState) {
  const RunResult original =
      run_once(info_of("AddressBook"), CrawlerKind::kBfs, quick_config());
  auto object = result_to_state(original).as_object();
  object.erase("covered");
  EXPECT_THROW(result_from_state(support::json::Value(std::move(object))),
               SnapshotError);
}

TEST(EnvelopeTest, SealWritesTheCheckpointLayoutAndUnsealChecksIt) {
  // Checkpoints, worker result files and serve-worker envelopes all go
  // through seal: its bytes are the on-disk format of every one of them.
  support::json::Object binding;
  binding.emplace("digest", std::string("abcd1234"));
  binding.emplace("seq", 3.0);
  const std::string text =
      support::snapshot::seal("mak-ckpt", 1, std::move(binding), "{\"a\":1}");
  EXPECT_EQ(text,
            "{\"crc32\":\"561bacaf\",\"digest\":\"abcd1234\",\"format\":1,"
            "\"magic\":\"mak-ckpt\",\"payload\":\"{\\\"a\\\":1}\","
            "\"seq\":3}\n");
  const auto envelope = support::snapshot::unseal(text, "mak-ckpt", 1, "t");
  EXPECT_EQ(envelope.find("payload")->as_string(), "{\"a\":1}");
  EXPECT_EQ(envelope.find("seq")->as_number(), 3.0);

  std::string flipped = text;
  flipped[flipped.find(":1}") + 1] = '2';  // payload byte, CRC left as is
  EXPECT_THROW(support::snapshot::unseal(flipped, "mak-ckpt", 1, "t"),
               SnapshotError);
  EXPECT_THROW(support::snapshot::unseal(text, "mak-worker", 1, "t"),
               SnapshotError);
  EXPECT_THROW(support::snapshot::unseal(text, "mak-ckpt", 2, "t"),
               SnapshotError);
  EXPECT_THROW(support::snapshot::unseal("[]", "mak-ckpt", 1, "t"),
               SnapshotError);
}

TEST(RunDigestTest, BindsConfigurationIdentity) {
  const RunConfig config = quick_config();
  const auto& app = info_of("AddressBook");
  const std::string base = run_digest(app, CrawlerKind::kMak, config, 3);
  EXPECT_EQ(base, run_digest(app, CrawlerKind::kMak, config, 3));
  EXPECT_NE(base, run_digest(app, CrawlerKind::kBfs, config, 3));
  EXPECT_NE(base, run_digest(app, CrawlerKind::kMak, config, 4));
  EXPECT_NE(base, run_digest(info_of("Drupal"), CrawlerKind::kMak, config, 3));
  RunConfig reseeded = config;
  reseeded.seed ^= 1;
  EXPECT_NE(base, run_digest(app, CrawlerKind::kMak, reseeded, 3));
}

// ------------------------------------------------- crash/resume equivalence

TEST(CheckpointResumeTest, CrashMidRepetitionResumesBitIdentical) {
  const std::string dir = scratch_dir("crash_mid_rep");
  RunConfig config = quick_config();
  config.checkpoint.dir = dir;
  config.checkpoint.every_steps = 7;
  config.checkpoint.interval = 0;  // step cadence only, deterministic

  RunConfig crashing = config;
  crashing.crash_at_step = 40;
  EXPECT_THROW(
      run_repeated(info_of("AddressBook"), CrawlerKind::kMak, crashing, 2),
      InjectedCrash);
  ASSERT_FALSE(checkpoint_files(dir).empty());

  const auto resumed =
      run_repeated(info_of("AddressBook"), CrawlerKind::kMak, config, 2);
  const auto reference = run_repeated(info_of("AddressBook"),
                                      CrawlerKind::kMak, quick_config(), 2);
  expect_identical_runs(resumed, reference);
}

TEST(CheckpointResumeTest, CrashInLaterRepetitionSkipsCompletedOnes) {
  const std::string dir = scratch_dir("crash_later_rep");
  RunConfig config = quick_config();
  config.checkpoint.dir = dir;
  config.checkpoint.every_steps = 11;
  config.checkpoint.interval = 0;

  // Crash partway through repetition 1 (each 3-minute repetition runs well
  // over 100 steps, so a total-step budget of 160 lands inside rep 1).
  RunConfig crashing = config;
  auto total_steps = std::make_shared<std::size_t>(0);
  crashing.step_hook = [total_steps](std::size_t) {
    if (++*total_steps >= 160) throw InjectedCrash();
  };
  EXPECT_THROW(
      run_repeated(info_of("AddressBook"), CrawlerKind::kMak, crashing, 3),
      InjectedCrash);

  const auto resumed =
      run_repeated(info_of("AddressBook"), CrawlerKind::kMak, config, 3);
  const auto reference = run_repeated(info_of("AddressBook"),
                                      CrawlerKind::kMak, quick_config(), 3);
  expect_identical_runs(resumed, reference);
}

TEST(CheckpointResumeTest, HeavyFaultProfileReplaysIdenticalFaultSequence) {
  const std::string dir = scratch_dir("crash_heavy_fault");
  RunConfig config = quick_config(0xfa01);
  config.fault = httpsim::fault_profile_heavy();
  config.checkpoint.dir = dir;
  config.checkpoint.every_steps = 5;
  config.checkpoint.interval = 0;

  RunConfig crashing = config;
  crashing.crash_at_step = 30;
  EXPECT_THROW(
      run_repeated(info_of("AddressBook"), CrawlerKind::kMak, crashing, 2),
      InjectedCrash);
  const auto resumed =
      run_repeated(info_of("AddressBook"), CrawlerKind::kMak, config, 2);

  RunConfig plain = quick_config(0xfa01);
  plain.fault = httpsim::fault_profile_heavy();
  const auto reference =
      run_repeated(info_of("AddressBook"), CrawlerKind::kMak, plain, 2);
  expect_identical_runs(resumed, reference);
  // The injected fault sequence itself must match, not just coverage.
  for (std::size_t rep = 0; rep < reference.size(); ++rep) {
    EXPECT_EQ(resumed[rep].injected_errors, reference[rep].injected_errors);
    EXPECT_EQ(resumed[rep].injected_drops, reference[rep].injected_drops);
    EXPECT_EQ(resumed[rep].latency_spikes, reference[rep].latency_spikes);
    EXPECT_EQ(resumed[rep].retries, reference[rep].retries);
    EXPECT_GT(reference[rep].injected_errors + reference[rep].injected_drops,
              0u)
        << "heavy profile should actually inject faults";
  }
}

TEST(CheckpointResumeTest, HeavyFaultPerStepCheckpointsRestoreInternedState) {
  // Checkpoint after every step under the heavy fault profile: each resume
  // rebuilds the frontier/ledger interners from serialized state (including
  // in-flight elements) at a different crawl position, so any id-assignment
  // or re-interning divergence shows up as a state mismatch.
  const std::string dir = scratch_dir("chaos_interned_state");
  RunConfig config = quick_config(0x1f2e);
  config.fault = httpsim::fault_profile_heavy();
  config.checkpoint.dir = dir;
  config.checkpoint.every_steps = 1;
  config.checkpoint.interval = 0;

  RunConfig crashing = config;
  crashing.crash_at_step = 17;
  EXPECT_THROW(
      run_repeated(info_of("AddressBook"), CrawlerKind::kMak, crashing, 1),
      InjectedCrash);
  const auto resumed =
      run_repeated(info_of("AddressBook"), CrawlerKind::kMak, config, 1);

  RunConfig plain = quick_config(0x1f2e);
  plain.fault = httpsim::fault_profile_heavy();
  const auto reference =
      run_repeated(info_of("AddressBook"), CrawlerKind::kMak, plain, 1);
  expect_identical_runs(resumed, reference);
}

TEST(CheckpointResumeTest, NonSnapshotableCrawlerRestartsRepetition) {
  const std::string dir = scratch_dir("qlearning_restart");
  RunConfig config = quick_config();
  config.checkpoint.dir = dir;

  RunConfig crashing = config;
  auto total_steps = std::make_shared<std::size_t>(0);
  crashing.step_hook = [total_steps](std::size_t) {
    if (++*total_steps >= 130) throw InjectedCrash();
  };
  EXPECT_THROW(
      run_repeated(info_of("AddressBook"), CrawlerKind::kWebExplor, crashing, 2),
      InjectedCrash);

  const auto resumed =
      run_repeated(info_of("AddressBook"), CrawlerKind::kWebExplor, config, 2);
  const auto reference = run_repeated(
      info_of("AddressBook"), CrawlerKind::kWebExplor, quick_config(), 2);
  expect_identical_runs(resumed, reference);
}

TEST(CheckpointResumeTest, CompletedExperimentShortCircuits) {
  const std::string dir = scratch_dir("complete");
  RunConfig config = quick_config();
  config.checkpoint.dir = dir;
  const auto first =
      run_repeated(info_of("AddressBook"), CrawlerKind::kBfs, config, 2);
  const auto again =
      run_repeated(info_of("AddressBook"), CrawlerKind::kBfs, config, 2);
  expect_identical_runs(again, first);
}

TEST(CheckpointResumeTest, RunResumableMatchesRunOnce) {
  const std::string dir = scratch_dir("resumable");
  RunConfig config = quick_config(0xabc);
  config.checkpoint.dir = dir;
  config.checkpoint.every_steps = 9;
  config.checkpoint.interval = 0;

  RunConfig crashing = config;
  crashing.crash_at_step = 50;
  EXPECT_THROW(
      run_resumable(info_of("AddressBook"), CrawlerKind::kMak, crashing),
      InjectedCrash);
  const RunResult resumed =
      run_resumable(info_of("AddressBook"), CrawlerKind::kMak, config);
  const RunResult reference =
      run_once(info_of("AddressBook"), CrawlerKind::kMak, quick_config(0xabc));
  EXPECT_EQ(state_bytes(resumed), state_bytes(reference));
}

// ------------------------------------------------------ the crawl engine
//
// run_once, the session server and both worker children all step one
// CrawlRun. These tests step it in batches, suspend and resume it, and
// check it against run_once's straight-through path.

RunConfig engine_config(std::uint64_t seed = 0x5eed) {
  RunConfig config;
  config.budget = 20000;
  config.seed = seed;
  return config;
}

RunResult step_to_budget(CrawlRun& run, std::size_t batch) {
  while (!run.finished()) run.step_batch(batch);
  return run.result();
}

TEST(CrawlRun, BatchedSteppingMatchesRunOnce) {
  const RunConfig config = engine_config();
  CrawlRun run(info_of("Drupal"), CrawlerKind::kMak, config);
  EXPECT_EQ(state_bytes(step_to_budget(run, 3)),
            state_bytes(run_once(info_of("Drupal"), CrawlerKind::kMak,
                                 config)));
}

TEST(CrawlRun, EquivalenceHoldsUnderFaultAndDrift) {
  RunConfig config = engine_config(0xfa17);
  config.fault = *httpsim::FaultProfile::parse("heavy");
  config.drift = *webapp::DriftProfile::parse("moderate");
  CrawlRun run(info_of("Drupal"), CrawlerKind::kMak, config);
  EXPECT_EQ(state_bytes(step_to_budget(run, 7)),
            state_bytes(run_once(info_of("Drupal"), CrawlerKind::kMak,
                                 config)));
}

TEST(CrawlRun, SuspendResumeIsByteIdentical) {
  const RunConfig config = engine_config(0xabcd);
  CrawlRun straight(info_of("Drupal"), CrawlerKind::kMak, config);
  const RunResult reference = step_to_budget(straight, 100);

  CrawlRun first(info_of("Drupal"), CrawlerKind::kMak, config);
  first.step_batch(5);
  ASSERT_FALSE(first.finished());
  CrawlRun second(info_of("Drupal"), CrawlerKind::kMak, config);
  second.load_state(first.save_state());
  EXPECT_EQ(state_bytes(step_to_budget(second, 100)), state_bytes(reference));
}

TEST(CrawlRun, UnfinishedResultIsMarkedAborted) {
  CrawlRun run(info_of("Drupal"), CrawlerKind::kMak, engine_config());
  run.step_batch(2);
  const RunResult partial = run.result("why");
  EXPECT_TRUE(partial.aborted);
  EXPECT_EQ(partial.abort_reason, "why");
  EXPECT_EQ(partial.steps, 2u);
}

TEST(CrawlRun, NonSnapshotCrawlerRefusesStateCapture) {
  CrawlRun run(info_of("Drupal"), CrawlerKind::kWebExplor, engine_config());
  run.step_batch(1);
  EXPECT_FALSE(run.snapshot_capable());
  EXPECT_THROW(run.save_state(), std::logic_error);
}

TEST(CrawlRun, ResumesTheRunStateOfAMidRunCheckpoint) {
  // A mid-run checkpoint of run_resumable holds the engine's own state, so
  // the engine the session server steps picks the run up where it stopped.
  const std::string dir = scratch_dir("engine_interchange");
  const RunConfig plain = quick_config(0xabc);
  RunConfig config = plain;
  config.checkpoint.dir = dir;
  config.checkpoint.every_steps = 9;
  config.checkpoint.interval = 0;
  RunConfig crashing = config;
  crashing.crash_at_step = 50;
  EXPECT_THROW(
      run_resumable(info_of("AddressBook"), CrawlerKind::kMak, crashing),
      InjectedCrash);

  CheckpointManager manager(
      config.checkpoint,
      run_digest(info_of("AddressBook"), CrawlerKind::kMak, config, 1));
  const auto checkpoint = manager.restore();
  ASSERT_TRUE(checkpoint.has_value());
  ASSERT_TRUE(checkpoint->run.has_value());
  CrawlRun run(info_of("AddressBook"), CrawlerKind::kMak, plain);
  run.load_state(*checkpoint->run);
  EXPECT_EQ(run.steps(), 45u);
  EXPECT_EQ(state_bytes(step_to_budget(run, 7)),
            state_bytes(run_once(info_of("AddressBook"), CrawlerKind::kMak,
                                 plain)));
}

// -------------------------------------------------- corruption resilience

TEST(CheckpointCorruptionTest, BitFlipFallsBackToOlderCheckpoint) {
  const std::string dir = scratch_dir("bitflip");
  RunConfig config = quick_config();
  config.checkpoint.dir = dir;
  config.checkpoint.every_steps = 7;
  config.checkpoint.interval = 0;
  config.checkpoint.keep = 5;

  RunConfig crashing = config;
  crashing.crash_at_step = 40;
  EXPECT_THROW(
      run_repeated(info_of("AddressBook"), CrawlerKind::kMak, crashing, 2),
      InjectedCrash);
  auto files = checkpoint_files(dir);
  ASSERT_GE(files.size(), 2u);

  // Flip one byte in the middle of the newest checkpoint's payload.
  const fs::path newest = files.back();
  std::string bytes;
  {
    std::ifstream in(newest, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  bytes[bytes.size() / 2] ^= 0x20;
  {
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  EXPECT_THROW(read_checkpoint_file(newest.string(), ""), SnapshotError);

  auto& invalid = support::MetricsRegistry::global().counter(
      "checkpoint.invalid_files");
  const bool metrics_were_enabled = support::metrics_enabled();
  support::set_metrics_enabled(true);
  const auto invalid_before = invalid.value();
  const auto resumed =
      run_repeated(info_of("AddressBook"), CrawlerKind::kMak, config, 2);
  EXPECT_GT(invalid.value(), invalid_before);
  support::set_metrics_enabled(metrics_were_enabled);
  const auto reference = run_repeated(info_of("AddressBook"),
                                      CrawlerKind::kMak, quick_config(), 2);
  expect_identical_runs(resumed, reference);
}

TEST(CheckpointCorruptionTest, TruncationFallsBackToOlderCheckpoint) {
  const std::string dir = scratch_dir("truncate");
  RunConfig config = quick_config();
  config.checkpoint.dir = dir;
  config.checkpoint.every_steps = 7;
  config.checkpoint.interval = 0;
  config.checkpoint.keep = 5;

  RunConfig crashing = config;
  crashing.crash_at_step = 40;
  EXPECT_THROW(
      run_repeated(info_of("AddressBook"), CrawlerKind::kMak, crashing, 2),
      InjectedCrash);
  auto files = checkpoint_files(dir);
  ASSERT_GE(files.size(), 2u);
  fs::resize_file(files.back(), fs::file_size(files.back()) / 2);
  EXPECT_THROW(read_checkpoint_file(files.back().string(), ""), SnapshotError);

  const auto resumed =
      run_repeated(info_of("AddressBook"), CrawlerKind::kMak, config, 2);
  const auto reference = run_repeated(info_of("AddressBook"),
                                      CrawlerKind::kMak, quick_config(), 2);
  expect_identical_runs(resumed, reference);
}

TEST(CheckpointCorruptionTest, AllCorruptStartsFromScratch) {
  const std::string dir = scratch_dir("all_corrupt");
  RunConfig config = quick_config();
  config.checkpoint.dir = dir;
  config.checkpoint.every_steps = 7;
  config.checkpoint.interval = 0;

  RunConfig crashing = config;
  crashing.crash_at_step = 40;
  EXPECT_THROW(
      run_repeated(info_of("AddressBook"), CrawlerKind::kMak, crashing, 1),
      InjectedCrash);
  for (const auto& file : checkpoint_files(dir)) {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out << "not json at all";
  }
  const auto resumed =
      run_repeated(info_of("AddressBook"), CrawlerKind::kMak, config, 1);
  const auto reference = run_repeated(info_of("AddressBook"),
                                      CrawlerKind::kMak, quick_config(), 1);
  expect_identical_runs(resumed, reference);
}

TEST(CheckpointCorruptionTest, ReadReportsMissingFile) {
  EXPECT_THROW(read_checkpoint_file("/nonexistent/ckpt.json", ""),
               SnapshotError);
}

TEST(CheckpointCorruptionTest, ReadRejectsWrongDigest) {
  const std::string dir = scratch_dir("wrong_digest");
  RunConfig config = quick_config();
  config.checkpoint.dir = dir;
  run_repeated(info_of("AddressBook"), CrawlerKind::kBfs, config, 1);
  const auto files = checkpoint_files(dir);
  ASSERT_FALSE(files.empty());
  EXPECT_NO_THROW(read_checkpoint_file(files.back().string(), ""));
  EXPECT_THROW(read_checkpoint_file(files.back().string(), "00000000"),
               SnapshotError);
}

TEST(CheckpointManagerTest, PrunesToConfiguredKeep) {
  const std::string dir = scratch_dir("prune");
  CheckpointConfig config;
  config.dir = dir;
  config.keep = 2;
  CheckpointManager manager(config, "deadbeef");
  ExperimentCheckpoint checkpoint;
  checkpoint.repetitions = 1;
  for (int i = 0; i < 5; ++i) manager.write(checkpoint);
  EXPECT_EQ(checkpoint_files(dir).size(), 2u);
  EXPECT_TRUE(manager.restore().has_value());
}

// ------------------------------------------------------------- supervisor

TEST(SupervisorTest, StepLimitAbortsWithPartialResult) {
  RunConfig config = quick_config();
  config.supervisor.max_steps = 20;
  const auto result =
      run_once(info_of("AddressBook"), CrawlerKind::kMak, config);
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.abort_reason, kAbortStepLimit);
  EXPECT_EQ(result.steps, 20u);
  EXPECT_GT(result.final_covered_lines, 0u);
  // The aborted block is reported in the experiment JSON.
  const std::string json = run_to_json(result, false);
  EXPECT_NE(json.find("\"aborted\":{\"reason\":\"step_limit\",\"steps\":20}"),
            std::string::npos);
  // A completed run carries no aborted block.
  const auto completed =
      run_once(info_of("AddressBook"), CrawlerKind::kMak, quick_config());
  EXPECT_EQ(run_to_json(completed, false).find("aborted"), std::string::npos);
}

TEST(SupervisorTest, WallLimitAborts) {
  RunConfig config = quick_config();
  config.supervisor.wall_limit_ms = 5;
  config.step_hook = [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  };
  const auto result =
      run_once(info_of("AddressBook"), CrawlerKind::kMak, config);
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.abort_reason, kAbortWallLimit);
  EXPECT_GT(result.steps, 0u);
}

TEST(SupervisorTest, StallDetectionAborts) {
  RunConfig config = quick_config();
  config.supervisor.heartbeat_ms = 40;
  config.step_hook = [](std::size_t step) {
    if (step == 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
  };
  const auto result =
      run_once(info_of("AddressBook"), CrawlerKind::kMak, config);
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.abort_reason, kAbortStalled);
}

TEST(SupervisorTest, GenerousLimitsDoNotPerturbTheRun) {
  RunConfig config = quick_config();
  config.supervisor.heartbeat_ms = 60000;
  config.supervisor.wall_limit_ms = 600000;
  config.supervisor.max_steps = 1u << 30;
  const auto supervised =
      run_once(info_of("AddressBook"), CrawlerKind::kMak, config);
  EXPECT_FALSE(supervised.aborted);
  const auto plain =
      run_once(info_of("AddressBook"), CrawlerKind::kMak, quick_config());
  // Identical trajectory: supervision must never consume RNG or time.
  EXPECT_EQ(run_to_json(supervised, true), run_to_json(plain, true));
}

TEST(SupervisorTest, AbortsDoNotDisturbParallelSiblings) {
  // Each repetition gets its own supervisor; an abort in one must leave the
  // others byte-identical to serial execution.
  RunConfig config = quick_config();
  config.supervisor.max_steps = 25;
  setenv("MAK_THREADS", "3", 1);
  const auto parallel =
      run_repeated(info_of("AddressBook"), CrawlerKind::kMak, config, 3);
  setenv("MAK_THREADS", "1", 1);
  const auto serial =
      run_repeated(info_of("AddressBook"), CrawlerKind::kMak, config, 3);
  unsetenv("MAK_THREADS");
  ASSERT_EQ(parallel.size(), 3u);
  for (const auto& run : parallel) {
    EXPECT_TRUE(run.aborted);
    EXPECT_EQ(run.abort_reason, kAbortStepLimit);
  }
  expect_identical_runs(parallel, serial);
}

TEST(SupervisorTest, AbortedRunsStillCheckpointAndResume) {
  const std::string dir = scratch_dir("aborted_rep");
  RunConfig config = quick_config();
  config.checkpoint.dir = dir;
  config.supervisor.max_steps = 25;
  const auto results =
      run_repeated(info_of("AddressBook"), CrawlerKind::kMak, config, 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].aborted);
  EXPECT_TRUE(results[1].aborted);
  // Re-running resumes the completed (aborted) experiment verbatim.
  const auto again =
      run_repeated(info_of("AddressBook"), CrawlerKind::kMak, config, 2);
  expect_identical_runs(again, results);
}

}  // namespace
}  // namespace mak::harness
