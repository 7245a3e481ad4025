// Randomized property tests: generated inputs, seeded and deterministic.
#include <algorithm>
#include <cmath>
#include <deque>
#include <ostream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "apps/catalog.h"
#include "core/frontier.h"
#include "core/site_mapper.h"
#include "support/json.h"
#include "harness/experiment.h"
#include "html/entities.h"
#include "html/interactables.h"
#include "html/parser.h"
#include "httpsim/network.h"
#include "rl/exp3.h"
#include "support/rng.h"
#include "url/url.h"

namespace mak {
namespace {

// ------------------------------------------------------------- URL fuzzing

std::string random_url_text(support::Rng& rng) {
  static const char* kSchemes[] = {"http", "https", ""};
  static const char* kHosts[] = {"a.test", "x.example.com", "localhost", ""};
  static const char* kSegments[] = {"a", "b", "index.php", "p%20q", ".",
                                    "..", "very-long-segment-name", "0"};
  std::string out;
  const char* scheme = kSchemes[rng.next_below(3)];
  const char* host = kHosts[rng.next_below(4)];
  if (*scheme != '\0' && *host != '\0') {
    out += scheme;
    out += "://";
    out += host;
    if (rng.chance(0.3)) out += ":" + std::to_string(rng.next_below(65536));
  }
  const std::size_t segments = rng.next_below(5);
  for (std::size_t i = 0; i < segments; ++i) {
    out += "/";
    out += kSegments[rng.next_below(8)];
  }
  if (rng.chance(0.5)) {
    out += "?";
    const std::size_t params = 1 + rng.next_below(3);
    for (std::size_t i = 0; i < params; ++i) {
      if (i > 0) out += "&";
      out += "k" + std::to_string(i) + "=v" + std::to_string(rng.next_below(10));
    }
  }
  if (rng.chance(0.3)) out += "#frag" + std::to_string(rng.next_below(5));
  return out;
}

class UrlFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UrlFuzzTest, ParseSerializeIsIdempotent) {
  support::Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const std::string text = random_url_text(rng);
    const auto parsed = url::parse(text);
    if (!parsed.has_value()) continue;
    const std::string serialized = parsed->to_string();
    const auto reparsed = url::parse(serialized);
    ASSERT_TRUE(reparsed.has_value()) << serialized;
    // Fixpoint: serialize(parse(serialize(u))) == serialize(u).
    EXPECT_EQ(reparsed->to_string(), serialized) << "from " << text;
  }
}

TEST_P(UrlFuzzTest, NormalizationIsIdempotent) {
  support::Rng rng(GetParam() ^ 0x1111);
  for (int i = 0; i < 500; ++i) {
    const auto parsed = url::parse(random_url_text(rng));
    if (!parsed.has_value()) continue;
    const auto once = url::normalized(*parsed);
    const auto twice = url::normalized(once);
    EXPECT_EQ(once, twice);
  }
}

TEST_P(UrlFuzzTest, ResolutionProducesAbsoluteUrls) {
  support::Rng rng(GetParam() ^ 0x2222);
  const url::Url base = *url::parse("http://base.test/dir/page?x=1");
  for (int i = 0; i < 500; ++i) {
    const auto resolved = url::resolve(base, random_url_text(rng));
    if (!resolved.has_value()) continue;
    EXPECT_TRUE(resolved->is_absolute());
    EXPECT_FALSE(resolved->host.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UrlFuzzTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

// ------------------------------------------------------------ HTML fuzzing

std::string random_markup(support::Rng& rng, std::size_t length) {
  static const char* kChunks[] = {
      "<div>",  "</div>",  "<p>",       "</p>",      "<a href=\"/x\">",
      "</a>",   "<br>",    "<input ",   "name=\"n\"", ">",
      "<",      ">",       "&amp;",     "&#65;",     "&bogus;",
      "text ",  "\"",      "'",         "<form action=\"/f\">", "</form>",
      "<!---",  "-->",     "<script>",  "</script>", "<ul><li>x",
      "=",      "attr",    " ",         "</",        "<!DOCTYPE html>",
  };
  std::string out;
  for (std::size_t i = 0; i < length; ++i) {
    out += kChunks[rng.next_below(sizeof(kChunks) / sizeof(kChunks[0]))];
  }
  return out;
}

class HtmlFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HtmlFuzzTest, ParserNeverCrashesOnTagSoup) {
  support::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const std::string markup = random_markup(rng, 1 + rng.next_below(60));
    ASSERT_NO_THROW({
      const auto doc = html::parse(markup);
      (void)html::extract_interactables(doc);
      (void)html::tag_sequence(doc);
      (void)html::qexplore_state_hash(doc);
    }) << markup;
  }
}

TEST_P(HtmlFuzzTest, SerializeParseReachesFixpoint) {
  support::Rng rng(GetParam() ^ 0x3333);
  for (int i = 0; i < 200; ++i) {
    const std::string markup = random_markup(rng, 1 + rng.next_below(40));
    const auto doc = html::parse(markup);
    const std::string once = html::serialize(doc.root());
    const std::string twice = html::serialize(html::parse(once).root());
    EXPECT_EQ(once, twice) << "from " << markup;
  }
}

TEST_P(HtmlFuzzTest, EntityRoundTripOnRandomText) {
  support::Rng rng(GetParam() ^ 0x4444);
  for (int i = 0; i < 500; ++i) {
    std::string text;
    const std::size_t length = rng.next_below(50);
    for (std::size_t c = 0; c < length; ++c) {
      text += static_cast<char>(32 + rng.next_below(95));  // printable ASCII
    }
    EXPECT_EQ(html::unescape(html::escape(text)), text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HtmlFuzzTest,
                         ::testing::Values(7u, 17u, 27u));

// ----------------------------------------------------------- site mapping

TEST(SiteMapperTest, MapsSmallAppCompletely) {
  auto app = apps::make_app("AddressBook");
  support::SimClock clock;
  httpsim::Network network(clock);
  network.register_host(app->host(), *app);
  const auto site = core::map_site(network, app->seed_url());
  EXPECT_FALSE(site.reached_cap);
  EXPECT_GT(site.pages_visited, 50u);
  EXPECT_GT(site.forms_seen, 0u);
  EXPECT_EQ(site.error_pages, 0u);
  // Depth histogram accounts for every visited page.
  std::size_t total = 0;
  for (const auto& [depth, count] : site.pages_per_depth) total += count;
  EXPECT_EQ(total, site.pages_visited);
}

TEST(SiteMapperTest, CapStopsTrapSites) {
  auto app = apps::make_app("WordPress");  // unbounded calendar URLs
  support::SimClock clock;
  httpsim::Network network(clock);
  network.register_host(app->host(), *app);
  core::SiteMapperConfig config;
  config.max_pages = 300;
  const auto site = core::map_site(network, app->seed_url(), config);
  EXPECT_TRUE(site.reached_cap);
  EXPECT_EQ(site.pages_visited, 300u);
}

TEST(SiteMapperTest, DeterministicAcrossRuns) {
  auto run = [] {
    auto app = apps::make_app("Vanilla");
    support::SimClock clock;
    httpsim::Network network(clock);
    network.register_host(app->host(), *app);
    return core::map_site(network, app->seed_url());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.pages_visited, b.pages_visited);
  EXPECT_EQ(a.max_depth, b.max_depth);
  EXPECT_EQ(a.coverable_lines, b.coverable_lines);
}

// --------------------------------------- Exp3.1 under adversarial rewards

// Exp3.1 is the paper's policy precisely because crawl rewards are
// adversarial; these properties must hold for *every* reward stream, so we
// drive the policy with a phase-shifting adversary (the best arm rotates
// every 100 steps, and every third phase is a total reward drought) and
// check the Algorithm 1 invariants after each update.
class Exp31AdversarialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Exp31AdversarialTest, InvariantsHoldOnPhaseShiftingStream) {
  constexpr std::size_t kArms = 3;
  const double k = static_cast<double>(kArms);
  rl::Exp31 policy(kArms);

  // Construction auto-advances out of epoch 0 (whose termination bound is
  // already violated at zero gain): gamma_1 = min(1, sqrt(1/4)) = 1/2.
  EXPECT_EQ(policy.epoch(), 1u);
  EXPECT_DOUBLE_EQ(policy.gamma(), 0.5);

  support::Rng rng(GetParam());
  const std::size_t resets_at_start = policy.weight_resets();
  const std::size_t epoch_at_start = policy.epoch();

  for (int t = 0; t < 4000; ++t) {
    const std::size_t phase = static_cast<std::size_t>(t / 100);
    const std::size_t best = phase % kArms;
    const bool drought = phase % 3 == 2;

    const std::size_t arm = policy.choose(rng);
    double reward = 0.0;
    if (!drought) {
      reward = arm == best ? 1.0 : (rng.chance(0.1) ? 0.5 : 0.0);
    }

    const std::size_t resets_before = policy.weight_resets();
    const double target_before = policy.gain_target();
    const double gamma_before = policy.gamma();
    policy.update(arm, reward);

    // Probabilities form a distribution with the Exp3 exploration floor.
    const auto probs = policy.probabilities();
    double sum = 0.0;
    for (double p : probs) {
      ASSERT_TRUE(std::isfinite(p)) << "step " << t;
      ASSERT_GE(p, policy.gamma() / k - 1e-12) << "step " << t;
      sum += p;
    }
    ASSERT_NEAR(sum, 1.0, 1e-9) << "step " << t;

    // Algorithm 1 line 9: after advance_epochs() the current epoch's
    // termination bound holds for the estimated gains.
    const double max_gain = *std::max_element(
        policy.estimated_gains().begin(), policy.estimated_gains().end());
    ASSERT_LE(max_gain, policy.gain_target() - k / policy.gamma() + 1e-9)
        << "step " << t;

    // A weight reset fires exactly when the gain target of the epoch the
    // update ran under was exceeded — never spuriously.
    if (policy.weight_resets() > resets_before) {
      ASSERT_GT(max_gain, target_before - k / gamma_before) << "step " << t;
    } else {
      ASSERT_EQ(policy.gain_target(), target_before) << "step " << t;
    }
  }

  // Epochs advance one at a time, so resets and epoch moves match up, and
  // 4000 adversarial steps are enough to leave the starting epoch.
  EXPECT_EQ(policy.epoch() - epoch_at_start,
            policy.weight_resets() - resets_at_start);
  EXPECT_GT(policy.weight_resets(), resets_at_start);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Exp31AdversarialTest,
                         ::testing::Values(5u, 55u, 555u));

TEST(Exp31AdversarialTest, AllZeroRewardsNeverProduceNaN) {
  rl::Exp31 policy(3);
  for (int t = 0; t < 10000; ++t) {
    policy.update(static_cast<std::size_t>(t % 3), 0.0);
  }
  // Zero reward means zero importance-weighted estimate: weights stay at 1,
  // the distribution stays uniform, and no epoch ever terminates.
  const auto probs = policy.probabilities();
  for (double p : probs) {
    ASSERT_TRUE(std::isfinite(p));
    EXPECT_NEAR(p, 1.0 / 3.0, 1e-12);
  }
  EXPECT_EQ(policy.epoch(), 1u);
  for (double g : policy.estimated_gains()) EXPECT_EQ(g, 0.0);
}

// ------------------------------- SoA frontier vs. reference LeveledDeque

// Executable specification of the historical frontier: plain deques of
// actions plus a key -> level map. The production LeveledDeque (interned
// ids, ring levels) must be observationally equivalent under any operation
// sequence, including the shared RNG draws of the Random arm.
class ReferenceFrontier {
 public:
  bool push(const core::ResolvedAction& action) {
    if (level_of_.count(action.key()) != 0) return false;
    level_of_[action.key()] = 0;
    level(0).push_back(action);
    ++size_;
    return true;
  }

  std::optional<core::ResolvedAction> take(core::Arm arm, support::Rng& rng) {
    if (size_ == 0) return std::nullopt;
    std::size_t lowest = 0;
    while (levels_[lowest].empty()) ++lowest;
    auto& deque = levels_[lowest];
    core::ResolvedAction taken;
    switch (arm) {
      case core::Arm::kHead:
        taken = deque.front();
        deque.pop_front();
        break;
      case core::Arm::kTail:
        taken = deque.back();
        deque.pop_back();
        break;
      case core::Arm::kRandom: {
        const auto index =
            static_cast<std::ptrdiff_t>(rng.next_below(deque.size()));
        taken = deque[static_cast<std::size_t>(index)];
        deque.erase(deque.begin() + index);
        break;
      }
    }
    --size_;
    ++level_of_[taken.key()];
    return taken;
  }

  void requeue(const core::ResolvedAction& action) {
    level(level_of_.at(action.key())).push_back(action);
    ++size_;
  }

  void requeue_same(const core::ResolvedAction& action) {
    auto& lvl = level_of_.at(action.key());
    if (lvl > 0) --lvl;
    level(lvl).push_back(action);
    ++size_;
  }

  void requeue_flat(const core::ResolvedAction& action) {
    level_of_.at(action.key()) = 0;
    level(0).push_back(action);
    ++size_;
  }

  std::size_t size() const { return size_; }
  std::size_t level_count() const { return levels_.size(); }
  std::size_t level_size(std::size_t i) const {
    return i < levels_.size() ? levels_[i].size() : 0;
  }

 private:
  std::deque<core::ResolvedAction>& level(std::size_t i) {
    if (levels_.size() <= i) levels_.resize(i + 1);
    return levels_[i];
  }

  std::vector<std::deque<core::ResolvedAction>> levels_;
  std::unordered_map<std::uint64_t, std::size_t> level_of_;
  std::size_t size_ = 0;
};

core::ResolvedAction frontier_action(std::size_t i) {
  core::ResolvedAction action;
  action.element.kind = html::InteractableKind::kLink;
  action.element.method = "GET";
  action.target = *url::parse("http://prop.test/p/" + std::to_string(i));
  return action;
}

class FrontierEquivalenceTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(FrontierEquivalenceTest, MatchesReferenceModelUnderRandomOps) {
  support::Rng rng(GetParam());
  core::LeveledDeque soa;
  ReferenceFrontier reference;
  // Two identically seeded streams for the Random arm, so a draw mismatch
  // shows up as a divergence instead of silently desynchronizing the test.
  support::Rng arm_rng_a(GetParam() ^ 0xa5a5);
  support::Rng arm_rng_b(GetParam() ^ 0xa5a5);

  std::vector<core::ResolvedAction> in_flight;
  std::size_t next_id = 0;
  for (int op = 0; op < 4000; ++op) {
    switch (rng.next_below(6)) {
      case 0:
      case 1: {  // push (fresh or duplicate)
        const std::size_t i =
            rng.chance(0.3) && next_id > 0 ? rng.next_below(next_id) : next_id;
        if (i == next_id) ++next_id;
        const auto action = frontier_action(i);
        ASSERT_EQ(soa.push(action), reference.push(action));
        break;
      }
      case 2:
      case 3: {  // take with a random arm
        const auto arm = static_cast<core::Arm>(rng.next_below(3));
        auto a = soa.take(arm, arm_rng_a);
        auto b = reference.take(arm, arm_rng_b);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a.has_value()) {
          ASSERT_EQ(a->key(), b->key());
          ASSERT_EQ(a->link(), b->link());
          in_flight.push_back(*a);
        }
        break;
      }
      default: {  // requeue one in-flight element via a random variant
        if (in_flight.empty()) break;
        const std::size_t pick = rng.next_below(in_flight.size());
        const auto action = in_flight[pick];
        in_flight.erase(in_flight.begin() +
                        static_cast<std::ptrdiff_t>(pick));
        switch (rng.next_below(3)) {
          case 0:
            soa.requeue(action);
            reference.requeue(action);
            break;
          case 1:
            soa.requeue_same(action);
            reference.requeue_same(action);
            break;
          default:
            soa.requeue_flat(action);
            reference.requeue_flat(action);
            break;
        }
        break;
      }
    }
    ASSERT_EQ(soa.size(), reference.size());
    ASSERT_EQ(soa.level_count(), reference.level_count());
    for (std::size_t i = 0; i < reference.level_count(); ++i) {
      ASSERT_EQ(soa.level_size(i), reference.level_size(i)) << "level " << i;
    }
  }

  // The serialized state round-trips to identical bytes, including with
  // elements still in flight (taken but not requeued).
  const auto state = soa.save_state();
  core::LeveledDeque restored;
  restored.load_state(state);
  EXPECT_EQ(support::json::dump(restored.save_state()),
            support::json::dump(state));
  EXPECT_EQ(restored.size(), soa.size());
  // Requeue of in-flight elements works identically after a reload.
  for (const auto& action : in_flight) {
    soa.requeue(action);
    restored.requeue(action);
  }
  EXPECT_EQ(support::json::dump(restored.save_state()),
            support::json::dump(soa.save_state()));
}

TEST(FrontierEquivalenceTest, RequeueOfUnknownElementThrows) {
  core::LeveledDeque deque;
  const auto unknown = frontier_action(999);
  EXPECT_THROW(deque.requeue(unknown), std::logic_error);
  EXPECT_THROW(deque.requeue_same(unknown), std::logic_error);
  EXPECT_THROW(deque.requeue_flat(unknown), std::logic_error);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontierEquivalenceTest,
                         ::testing::Values(1u, 2u, 3u, 0xbeefu, 0xc0ffeeu));

// ---------------------------------------- determinism across all crawlers

struct DeterminismCase {
  const char* app;
  harness::CrawlerKind kind;
};

// Test listings (and the ctest names gtest_discover_tests derives from
// them) show the parameter through this; gtest's default would print the
// struct's raw bytes, pointers included, which change with every build.
void PrintTo(const DeterminismCase& c, std::ostream* os) {
  *os << c.app << '/' << harness::to_string(c.kind);
}

class CrawlDeterminismTest
    : public ::testing::TestWithParam<DeterminismCase> {};

TEST_P(CrawlDeterminismTest, SameSeedSameOutcome) {
  harness::RunConfig config;
  config.budget = 4 * support::kMillisPerMinute;
  config.seed = 0xd5ee;
  const apps::AppInfo* info = nullptr;
  for (const auto& candidate : apps::app_catalog()) {
    if (candidate.name == GetParam().app) info = &candidate;
  }
  ASSERT_NE(info, nullptr);
  const auto a = harness::run_once(*info, GetParam().kind, config);
  const auto b = harness::run_once(*info, GetParam().kind, config);
  EXPECT_EQ(a.final_covered_lines, b.final_covered_lines);
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_EQ(a.links_discovered, b.links_discovered);
  EXPECT_EQ(a.series.points().size(), b.series.points().size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrawlDeterminismTest,
    ::testing::Values(
        DeterminismCase{"Vanilla", harness::CrawlerKind::kMak},
        DeterminismCase{"Vanilla", harness::CrawlerKind::kWebExplor},
        DeterminismCase{"Vanilla", harness::CrawlerKind::kQExplore},
        DeterminismCase{"HotCRP", harness::CrawlerKind::kBfs},
        DeterminismCase{"HotCRP", harness::CrawlerKind::kDfs},
        DeterminismCase{"HotCRP", harness::CrawlerKind::kRandom},
        DeterminismCase{"PhpBB2", harness::CrawlerKind::kMakUcb1},
        DeterminismCase{"PhpBB2", harness::CrawlerKind::kMakFlatDeque}));

}  // namespace
}  // namespace mak
