// The benchmark's workloads. Each one is a fixed list of operations built
// from the workload seed alone and split into units (an app's row of
// Table II, one generated app, the whole session fleet).
// The benchmark runs every unit once per round, for as many rounds as the
// requested host time allows, and sums the units' median times, so a burst
// of host noise in one round does not move the result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

// Host-time samples of the session server, taken from outside its calls.
struct ServeSamples {
  std::vector<double> tick_ms;
  std::vector<double> open_us;
  std::vector<double> close_us;
  std::size_t tick_steps = 0;
  std::size_t retained_sessions = 0;
  std::size_t evictions = 0;
};

// One execution of a unit, or the concatenation of one execution of every
// unit (a pass).
struct PassResult {
  double wall_s = 0.0;
  std::vector<OpOutput> outputs;    // one per op, in op order
  std::vector<double> step_us;      // host µs per crawl step
  std::vector<double> session_ms;   // host ms per operation, start to finish
  std::size_t steps = 0;
  double coverage_sum = 0.0;        // Σ per-cell coverage %, against the
  std::size_t coverage_cells = 0;   // workload's ground truth
  double busy_s = 0.0;              // summed executor busy time
  std::size_t spawns = 0;           // worker processes started
  ServeSamples serve;               // serve_fleet only
  std::vector<std::string> problems;  // lost or rejected operations

  void append(PassResult&& unit);
};

class Workload {
 public:
  virtual ~Workload() = default;

  const std::vector<Op>& ops() const noexcept { return ops_; }
  std::size_t unit_count() const noexcept { return unit_begin_.size(); }
  // Ops of unit u are [unit_begin(u), unit_end(u)).
  std::size_t unit_begin(std::size_t u) const { return unit_begin_[u]; }
  std::size_t unit_end(std::size_t u) const {
    return u + 1 < unit_begin_.size() ? unit_begin_[u + 1] : ops_.size();
  }
  // Executors that run operations side by side (threads or workers).
  virtual std::size_t concurrency() const = 0;

  // Everything the workload needs before its first crawl step: building the
  // apps and the server. Idempotent, so it can be timed several times.
  virtual void setup() = 0;
  virtual PassResult run_unit(std::size_t unit) = 0;

  // Ops whose output is re-derived through plain harness::run_once to
  // check the workload's execution path against the serial one.
  virtual std::vector<std::size_t> cross_check_sample() const = 0;

 protected:
  Workload() = default;
  // Starts a new unit at the next op.
  void begin_unit() { unit_begin_.push_back(ops_.size()); }

  std::vector<Op> ops_;
  std::vector<std::size_t> unit_begin_;
};

// nullptr for an unknown name. `scratch` is a fresh directory for server
// state; `tiny` selects the smoke-test size.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny,
                                        const std::string& scratch);

}  // namespace perfbench
