// The traced run's layer ledger. It rebuilds a sample of the workload's
// operations from the same public constructors harness::run_once uses, with
// the app behind a timing httpsim::VirtualHost decorator, and prices each
// layer by calling its public functions from outside the program on copies
// of what the crawl produced. Nothing here touches the live crawl.
#pragma once

#include <map>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace perfbench {

struct LayerMetric {
  double value = 0.0;
  std::string unit;
};

// Per-layer metrics (BENCHMARK.json "per_layer") for `workload`, whose
// untraced pass is `pass`. Runs ledger operations for about `seconds` of
// host time; every traced crawl must reproduce run_once and the pass
// exactly, and each one is tallied in `verdict`.
std::map<std::string, LayerMetric> run_ledger(Workload& workload,
                                         const PassResult& pass,
                                         double seconds,
                                         const std::string& scratch,
                                         Verdict& verdict);

}  // namespace perfbench
