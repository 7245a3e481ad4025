// Shared types of the benchmark binary: operations, their outputs and
// digests, per-thread step timing, and the summary statistics every
// workload reports.
//
// An operation is one crawl: one crawler on one app for one virtual-time
// budget from one seed. Its simulated output (steps, covered lines, links)
// is a pure function of those inputs, so it is compared exactly; only host
// time is measured.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apps/catalog.h"
#include "harness/experiment.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

struct Op {
  mak::apps::AppInfo info;
  mak::harness::CrawlerKind kind = mak::harness::CrawlerKind::kMak;
  // The config run_once takes to reproduce this operation (seed already
  // derived per repetition).
  mak::harness::RunConfig config;
  // Ground truth the operation's coverage is held to: the generator's
  // closed-form reachable lines, or 0 when the app's declared total applies.
  std::size_t reachable_lines = 0;
};

struct OpOutput {
  std::string app;
  std::string crawler;
  std::uint64_t seed = 0;
  std::size_t steps = 0;
  std::size_t covered = 0;
  std::size_t links = 0;
  std::size_t total_lines = 0;
  bool completed = false;  // not failed, aborted or lost
};

OpOutput output_of(const mak::harness::RunResult& result, std::uint64_t seed);
// "app|crawler|seed|steps|covered|links" — what the reference digests hash.
std::string canonical(const OpOutput& out);

// Step and run host times collected from RunConfig::step_hook and the app
// factory, in one buffer per thread so the pool's threads never contend.
// A step is timed between consecutive hook calls of one run (tag + step
// index continuity); a run from its factory call to its last step.
class StepTimer {
 public:
  // Marks the start of a run on the calling thread (closes the previous
  // one). Called from wrapped app factories.
  static void run_started();
  // Called after every completed crawl step.
  static void step_done(std::uint64_t tag, std::size_t step);
  // Drops every buffer but the caller's, which it clears. Call only while
  // no pool thread of an earlier run is still running.
  static void reset();
  // Closes open runs and returns all samples gathered since reset().
  static void collect(std::vector<double>& step_us,
                      std::vector<double>& run_ms);

  // A RunConfig::step_hook that reports to the timer under `tag`.
  static std::function<void(std::size_t)> hook(std::uint64_t tag);
  // `info` whose factory marks a run start before building the app.
  static mak::apps::AppInfo timed(const mak::apps::AppInfo& info);
};

// A fresh directory under `base` that no earlier instance used, removed
// with everything in it on destruction. Orchestrator and server scratch
// lives here, so no execution resumes from another's results.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& base);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

// Peak resident memory of this process plus its largest reaped child, MB.
double peak_rss_mb();

// Tally of operations attempted and failed, with the first few reasons. An
// operation fails when it did not complete or its output differs from its
// reference.
struct Verdict {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> reasons;

  void op(bool ok, const std::string& reason);
};

// Compares two outputs of the same operation field by field.
bool same_output(const OpOutput& a, const OpOutput& b);

}  // namespace perfbench
