#include <cstdlib>
#include <sstream>

#include <gtest/gtest.h>

#include "harness/aggregate.h"
#include "harness/experiment.h"
#include "harness/report.h"

namespace mak::harness {
namespace {

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

// -------------------------------------------------------------- run_once

TEST(RunOnceTest, ProducesPopulatedResult) {
  const auto result =
      run_once(info_of("AddressBook"), CrawlerKind::kMak, quick_config());
  EXPECT_EQ(result.app, "AddressBook");
  EXPECT_EQ(result.crawler, "MAK");
  EXPECT_EQ(result.platform, apps::Platform::kPhp);
  EXPECT_GT(result.interactions, 10u);
  EXPECT_GT(result.links_discovered, 5u);
  EXPECT_GT(result.final_covered_lines, 500u);
  EXPECT_GT(result.total_lines, result.final_covered_lines);
  EXPECT_EQ(result.covered.count(), result.final_covered_lines);
  EXPECT_FALSE(result.series.empty());
}

TEST(RunOnceTest, DeterministicForSameSeed) {
  const auto a =
      run_once(info_of("Vanilla"), CrawlerKind::kMak, quick_config(7));
  const auto b =
      run_once(info_of("Vanilla"), CrawlerKind::kMak, quick_config(7));
  EXPECT_EQ(a.final_covered_lines, b.final_covered_lines);
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_EQ(a.links_discovered, b.links_discovered);
}

TEST(RunOnceTest, DifferentSeedsUsuallyDiffer) {
  const auto a =
      run_once(info_of("Vanilla"), CrawlerKind::kMak, quick_config(7));
  const auto b =
      run_once(info_of("Vanilla"), CrawlerKind::kMak, quick_config(8));
  EXPECT_NE(a.final_covered_lines, b.final_covered_lines);
}

TEST(RunOnceTest, SeriesIsMonotone) {
  const auto result =
      run_once(info_of("PhpBB2"), CrawlerKind::kMak, quick_config());
  std::size_t prev = 0;
  for (const auto& point : result.series.points()) {
    EXPECT_GE(point.covered_lines, prev);
    prev = point.covered_lines;
  }
  EXPECT_EQ(prev, result.final_covered_lines);
}

TEST(RunOnceTest, SamplingGridMatchesInterval) {
  const auto config = quick_config();
  const auto result =
      run_once(info_of("Vanilla"), CrawlerKind::kBfs, config);
  const auto& points = result.series.points();
  ASSERT_GE(points.size(), 2u);
  EXPECT_EQ(points[0].time, 0);
  EXPECT_EQ(points[1].time - points[0].time, config.sample_interval);
  EXPECT_EQ(points.back().time, config.budget);
}

TEST(RunRepeatedTest, ProducesIndependentRuns) {
  const auto runs =
      run_repeated(info_of("Vanilla"), CrawlerKind::kMak, quick_config(), 3);
  ASSERT_EQ(runs.size(), 3u);
  // Derived seeds differ, so runs almost surely differ.
  EXPECT_FALSE(runs[0].final_covered_lines == runs[1].final_covered_lines &&
               runs[1].final_covered_lines == runs[2].final_covered_lines);
}

// Locks in the clock-ownership rule documented in support/clock.h: each
// repetition owns its SimClock (plus network and app), so a parallel pool
// (MAK_THREADS=4) must produce bit-identical results to a serial one.
TEST(RunRepeatedTest, ParallelMatchesSerial) {
  setenv("MAK_THREADS", "1", 1);
  const auto serial =
      run_repeated(info_of("Vanilla"), CrawlerKind::kMak, quick_config(), 4);
  setenv("MAK_THREADS", "4", 1);
  const auto parallel =
      run_repeated(info_of("Vanilla"), CrawlerKind::kMak, quick_config(), 4);
  unsetenv("MAK_THREADS");
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].final_covered_lines, parallel[i].final_covered_lines);
    EXPECT_EQ(serial[i].interactions, parallel[i].interactions);
    EXPECT_EQ(serial[i].links_discovered, parallel[i].links_discovered);
    ASSERT_EQ(serial[i].series.points().size(),
              parallel[i].series.points().size());
    for (std::size_t j = 0; j < serial[i].series.points().size(); ++j) {
      EXPECT_EQ(serial[i].series.points()[j].covered_lines,
                parallel[i].series.points()[j].covered_lines);
    }
  }
}

// All crawler kinds must run without crashing.
class AllCrawlerKindsTest : public ::testing::TestWithParam<CrawlerKind> {};

TEST_P(AllCrawlerKindsTest, RunsToCompletion) {
  const auto result =
      run_once(info_of("AddressBook"), GetParam(), quick_config());
  EXPECT_GT(result.final_covered_lines, 0u);
  EXPECT_EQ(result.crawler, std::string(to_string(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllCrawlerKindsTest,
    ::testing::Values(CrawlerKind::kMak, CrawlerKind::kWebExplor,
                      CrawlerKind::kQExplore, CrawlerKind::kBfs,
                      CrawlerKind::kDfs, CrawlerKind::kRandom,
                      CrawlerKind::kMakRawReward,
                      CrawlerKind::kMakCuriosityReward,
                      CrawlerKind::kMakFlatDeque, CrawlerKind::kMakExp3Fixed,
                      CrawlerKind::kMakEpsilonGreedy, CrawlerKind::kMakUcb1));

// ------------------------------------------------------------- aggregate

TEST(AggregateTest, SeriesMeanAndStd) {
  std::vector<RunResult> runs(2);
  runs[0].series.record(0, 10);
  runs[0].series.record(100, 20);
  runs[1].series.record(0, 30);
  runs[1].series.record(100, 40);
  const auto curve = aggregate_series(runs);
  ASSERT_EQ(curve.times.size(), 2u);
  EXPECT_EQ(curve.times[1], 100);
  EXPECT_DOUBLE_EQ(curve.mean[0], 20.0);
  EXPECT_DOUBLE_EQ(curve.mean[1], 30.0);
  EXPECT_DOUBLE_EQ(curve.stddev[0], 10.0);  // population std of {10, 30}
}

TEST(AggregateTest, EmptyRunsGiveEmptyCurve) {
  EXPECT_TRUE(aggregate_series({}).times.empty());
}

TEST(AggregateTest, MeanCoveredAndInteractions) {
  std::vector<RunResult> runs(2);
  runs[0].final_covered_lines = 100;
  runs[1].final_covered_lines = 200;
  runs[0].interactions = 10;
  runs[1].interactions = 30;
  EXPECT_DOUBLE_EQ(mean_covered(runs), 150.0);
  EXPECT_DOUBLE_EQ(mean_interactions(runs), 20.0);
}

TEST(AggregateTest, GroundTruthUnionForPhp) {
  coverage::CodeModel model;
  model.add_file("a.php", 100);
  std::vector<std::vector<RunResult>> by_crawler(2);
  RunResult r1;
  r1.platform = apps::Platform::kPhp;
  r1.total_lines = 100;
  r1.covered = coverage::LineSet(model);
  r1.covered.mark(0, 1, 30);
  RunResult r2 = r1;
  r2.covered.clear();
  r2.covered.mark(0, 21, 50);
  by_crawler[0].push_back(r1);
  by_crawler[1].push_back(r2);
  EXPECT_EQ(estimate_ground_truth(by_crawler), 50u);  // union 1..50
}

TEST(AggregateTest, GroundTruthTotalForNode) {
  std::vector<std::vector<RunResult>> by_crawler(1);
  RunResult r;
  r.platform = apps::Platform::kNode;
  r.total_lines = 4242;
  by_crawler[0].push_back(r);
  EXPECT_EQ(estimate_ground_truth(by_crawler), 4242u);
}

TEST(AggregateTest, GroundTruthRejectsEmpty) {
  std::vector<std::vector<RunResult>> empty(2);
  EXPECT_THROW(estimate_ground_truth(empty), std::invalid_argument);
}

TEST(AggregateTest, CoveragePercent) {
  std::vector<RunResult> runs(1);
  runs[0].final_covered_lines = 25;
  EXPECT_DOUBLE_EQ(mean_coverage_percent(runs, 100), 25.0);
  EXPECT_DOUBLE_EQ(mean_coverage_percent(runs, 0), 0.0);
}

TEST(AggregateTest, RegretsMath) {
  const std::map<std::string, double> mean_lines = {
      {"MAK", 900.0}, {"BFS", 800.0}, {"DFS", 500.0}};
  const auto regrets = regrets_percent(mean_lines, 1000.0);
  EXPECT_DOUBLE_EQ(regrets.at("MAK"), 0.0);
  EXPECT_DOUBLE_EQ(regrets.at("BFS"), 10.0);
  EXPECT_DOUBLE_EQ(regrets.at("DFS"), 40.0);
  EXPECT_TRUE(regrets_percent({}, 100.0).empty());
}

// ---------------------------------------------------------------- report

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"Name", "Value"});
  table.add_row({"alpha", "1.5"});
  table.add_row({"bb", "100,2"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("Name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
  // Numeric cells right-aligned: "  1.5" has leading spaces.
  EXPECT_NE(text.find("  1.5"), std::string::npos);
}

TEST(CsvTest, QuotesSpecials) {
  EXPECT_EQ(to_csv_row({"a", "b"}), "a,b");
  EXPECT_EQ(to_csv_row({"a,b", "c\"d", "e\nf"}),
            "\"a,b\",\"c\"\"d\",\"e\nf\"");
}

// --------------------------------------------------------------- protocol

TEST(ProtocolTest, DefaultsToPaperProtocol) {
  unsetenv("MAK_REPS");
  unsetenv("MAK_BUDGET_MINUTES");
  unsetenv("MAK_SAMPLE_SECONDS");
  const auto protocol = protocol_from_env();
  EXPECT_EQ(protocol.repetitions, 10u);
  EXPECT_EQ(protocol.run.budget, 30 * support::kMillisPerMinute);
  EXPECT_EQ(protocol.run.sample_interval, 30 * support::kMillisPerSecond);
}

TEST(ProtocolTest, EnvironmentOverrides) {
  setenv("MAK_REPS", "2", 1);
  setenv("MAK_BUDGET_MINUTES", "5", 1);
  setenv("MAK_SAMPLE_SECONDS", "10", 1);
  const auto protocol = protocol_from_env();
  EXPECT_EQ(protocol.repetitions, 2u);
  EXPECT_EQ(protocol.run.budget, 5 * support::kMillisPerMinute);
  EXPECT_EQ(protocol.run.sample_interval, 10 * support::kMillisPerSecond);
  unsetenv("MAK_REPS");
  unsetenv("MAK_BUDGET_MINUTES");
  unsetenv("MAK_SAMPLE_SECONDS");
}

}  // namespace
}  // namespace mak::harness
