// perfbench: runs one benchmark workload and prints one JSON line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --scratch DIR [--tiny] [--reference FILE] [--record FILE]
//
// With --trace 0 the line carries the end-to-end metrics, measured with no
// instrumentation beyond RunConfig::step_hook; with --trace 1 it carries the
// layer ledger (ledger.h). Either way every operation's simulated output is
// checked: against its other executions in this run, against plain
// harness::run_once on a sample, against its ground truth, and against the
// reference digests in --reference. The line's "details" object holds
// sample counts and the reasons for any failure.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "harness/orchestrator.h"
#include "ledger.h"
#include "support/json.h"
#include "support/snapshot.h"
#include "support/stats.h"
#include "support/strings.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace json = mak::support::json;

// Seed whose Table II output is the committed results table, and the seed
// held out from tuning. Their digests are recorded in reference.json.
constexpr std::uint64_t kDefaultSeed = 24301;  // 0x5eed
constexpr double kSetupBatchSeconds = 0.05;
constexpr std::size_t kCanaryOps = 3;
constexpr long kCanaryMinutes = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string scratch;
  std::string reference;
  std::string record;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--reference") {
      args.reference = value;
    } else if (flag == "--record") {
      args.record = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && !args.scratch.empty();
}

std::string digest_of(const OpOutput& out) {
  return mak::support::snapshot::u64_to_hex(
      mak::support::fnv1a(canonical(out)));
}

// Reference digests of one workload: per seed, one per op; and the canary.
struct Reference {
  std::vector<std::string> canary;
  std::vector<std::string> ops;  // empty when the seed was not recorded
};

std::vector<std::string> strings_of(const json::Value* value) {
  std::vector<std::string> out;
  if (value == nullptr || !value->is_array()) return out;
  for (const auto& item : value->as_array()) {
    if (item.is_string()) out.push_back(item.as_string());
  }
  return out;
}

Reference load_reference(const Args& args) {
  Reference ref;
  std::ifstream in(args.reference);
  if (!in) throw std::runtime_error("perfbench: cannot read " + args.reference);
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = json::parse(text.str());
  const json::Value* workloads = doc ? doc->find("workloads") : nullptr;
  const json::Value* entry =
      workloads != nullptr ? workloads->find(args.workload) : nullptr;
  if (entry == nullptr) {
    throw std::runtime_error("perfbench: no reference for " + args.workload);
  }
  ref.canary = strings_of(entry->find("canary"));
  if (const json::Value* seeds = entry->find("seeds")) {
    ref.ops = strings_of(seeds->find(std::to_string(args.seed)));
  }
  return ref;
}

// The first ops of the workload at the default seed, budget capped: run on
// every full-size run, so each run meets recorded digests whatever its seed.
std::vector<OpOutput> run_canary(const Args& args) {
  const auto workload =
      make_workload(args.workload, kDefaultSeed, false, args.scratch);
  std::vector<OpOutput> outputs;
  for (std::size_t i = 0; i < kCanaryOps && i < workload->ops().size(); ++i) {
    const Op& op = workload->ops()[i];
    mak::harness::RunConfig config = op.config;
    config.budget = std::min(config.budget,
                             kCanaryMinutes * mak::support::kMillisPerMinute);
    outputs.push_back(output_of(
        mak::harness::run_once(op.info, op.kind, config), config.seed));
  }
  return outputs;
}

// Checks one execution of unit u: every op completed within its ground
// truth, equals the unit's first execution (`first`, null for the first
// one) and, when this seed was recorded, the reference digest.
void check_unit(const Workload& workload, std::size_t u, const PassResult& run,
                const std::vector<OpOutput>* first, const Reference* ref,
                Verdict& verdict) {
  for (const std::string& problem : run.problems) {
    if (verdict.reasons.size() < 8) verdict.reasons.push_back(problem);
  }
  for (std::size_t i = workload.unit_begin(u); i < workload.unit_end(u); ++i) {
    const Op& op = workload.ops()[i];
    const OpOutput& out = run.outputs[i - workload.unit_begin(u)];
    const std::size_t truth =
        op.reachable_lines > 0 ? op.reachable_lines : out.total_lines;
    bool ok = out.completed && out.covered <= truth;
    std::string why = "op " + std::to_string(i) + " (" + canonical(out) + ")";
    if (first != nullptr && !same_output(out, (*first)[i])) {
      ok = false;
      why += " differs between rounds";
    }
    if (ref != nullptr && !ref->ops.empty() &&
        (i >= ref->ops.size() || ref->ops[i] != digest_of(out))) {
      ok = false;
      why += " differs from the reference";
    }
    verdict.op(ok, why);
  }
}

// The serial path, on a sample of the workload's own path.
void cross_check(const Workload& workload, const std::vector<OpOutput>& outputs,
                 Verdict& verdict) {
  for (const std::size_t i : workload.cross_check_sample()) {
    const Op& op = workload.ops()[i];
    const OpOutput serial = output_of(
        mak::harness::run_once(op.info, op.kind, op.config), op.config.seed);
    verdict.op(same_output(serial, outputs[i]),
               "op " + std::to_string(i) + " differs from run_once: " +
                   canonical(outputs[i]) + " vs " + canonical(serial));
  }
}

json::Value metric(double value, const std::string& unit) {
  json::Object object;
  object.emplace("value", value);
  object.emplace("unit", unit);
  return json::Value(std::move(object));
}

int run(const Args& args) {
  auto workload =
      make_workload(args.workload, args.seed, args.tiny, args.scratch);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  Verdict verdict;
  std::optional<Reference> ref;
  if (!args.reference.empty() && !args.tiny) ref = load_reference(args);

  // The units run in rounds, each round executing every unit once, until
  // another round would overrun --seconds (one round in the traced run,
  // which spends the rest on the ledger). Interleaving spreads each unit's
  // executions over the whole run, so a slow spell of the host touches
  // every unit alike. A unit's time is its median over the rounds and the
  // workload's time the sum over units; the step and session percentiles
  // pool every round, in which every unit ran once.
  //
  // Set-up is short, so it is timed in a batch before every round and
  // reported as the median of all batches.
  const std::size_t units = workload->unit_count();
  PassResult pass;  // the first execution of every unit
  std::vector<std::vector<double>> unit_walls(units);
  std::vector<double> step_us;
  std::vector<double> session_ms;
  std::vector<double> setup_s;
  std::size_t rounds = 0;
  const Clock::time_point runs_start = Clock::now();
  double round_s = 0.0;
  do {
    const Clock::time_point setup_start = Clock::now();
    do {
      const Clock::time_point t0 = Clock::now();
      workload->setup();
      setup_s.push_back(seconds_since(t0));
    } while (!args.trace && seconds_since(setup_start) < kSetupBatchSeconds);
    for (std::size_t u = 0; u < units; ++u) {
      PassResult rep = workload->run_unit(u);
      check_unit(*workload, u, rep, rounds == 0 ? nullptr : &pass.outputs,
                 ref ? &*ref : nullptr, verdict);
      unit_walls[u].push_back(rep.wall_s);
      step_us.insert(step_us.end(), rep.step_us.begin(), rep.step_us.end());
      session_ms.insert(session_ms.end(), rep.session_ms.begin(),
                        rep.session_ms.end());
      if (rounds == 0) {
        rep.step_us.clear();
        pass.append(std::move(rep));
      }
    }
    ++rounds;
    round_s = seconds_since(setup_start);
  } while (!args.trace && seconds_since(runs_start) + round_s < args.seconds);
  double wall_s = 0.0;
  for (const std::vector<double>& walls : unit_walls) {
    wall_s += mak::support::median_of(walls);
  }
  cross_check(*workload, pass.outputs, verdict);
  std::vector<OpOutput> canary;
  if (!args.tiny) {
    canary = run_canary(args);
    for (std::size_t i = 0; i < canary.size(); ++i) {
      const bool ok = !ref.has_value() || (i < ref->canary.size() &&
                                           ref->canary[i] ==
                                               digest_of(canary[i]));
      verdict.op(canary[i].completed && ok,
                 "canary " + canonical(canary[i]) +
                     " differs from the reference");
    }
  }

  json::Object metrics;
  const double ops = static_cast<double>(workload->ops().size());
  if (args.trace) {
    for (const auto& [name, value] :
         run_ledger(*workload, pass, args.seconds / 2, args.scratch, verdict)) {
      metrics.emplace(name, metric(value.value, value.unit));
    }
    metrics.emplace("peak_rss_mb", metric(peak_rss_mb(), "MB"));
  } else {
    metrics.emplace("setup_s", metric(mak::support::median_of(setup_s), "s"));
    metrics.emplace("wall_s", metric(wall_s, "s"));
    metrics.emplace("steps_per_s",
                    metric(static_cast<double>(pass.steps) / wall_s,
                           "steps/s"));
    metrics.emplace("step_us_p50",
                    metric(mak::support::percentile_of(step_us, 50), "us"));
    metrics.emplace("step_us_p90",
                    metric(mak::support::percentile_of(step_us, 90), "us"));
    metrics.emplace("sessions_per_s", metric(ops / wall_s, "sessions/s"));
    metrics.emplace("session_ms_p50",
                    metric(mak::support::percentile_of(session_ms, 50), "ms"));
    metrics.emplace("session_ms_p90",
                    metric(mak::support::percentile_of(session_ms, 90), "ms"));
    metrics.emplace("mean_coverage_pct",
                    metric(pass.coverage_sum /
                               static_cast<double>(pass.coverage_cells),
                           "%"));
  }

  json::Object details;
  details.emplace("units", static_cast<double>(units));
  details.emplace("rounds", static_cast<double>(rounds));
  details.emplace("ops_per_pass", ops);
  details.emplace("steps_per_pass", static_cast<double>(pass.steps));
  details.emplace("step_samples", static_cast<double>(step_us.size()));
  details.emplace("session_samples", static_cast<double>(session_ms.size()));
  details.emplace("setups", static_cast<double>(setup_s.size()));
  details.emplace("reference_ops_checked",
                  ref.has_value() && !ref->ops.empty());
  json::Array reasons;
  for (const std::string& reason : verdict.reasons) {
    reasons.emplace_back(reason);
  }
  details.emplace("failures", json::Value(std::move(reasons)));

  if (!args.record.empty()) {
    json::Array op_digests;
    for (const OpOutput& out : pass.outputs) {
      op_digests.emplace_back(digest_of(out));
    }
    json::Array canary_digests;
    for (const OpOutput& out : canary) {
      canary_digests.emplace_back(digest_of(out));
    }
    json::Object record;
    record.emplace("workload", args.workload);
    record.emplace("seed", std::to_string(args.seed));
    record.emplace("ops", json::Value(std::move(op_digests)));
    record.emplace("canary", json::Value(std::move(canary_digests)));
    std::ofstream out(args.record);
    out << json::dump(json::Value(std::move(record))) << "\n";
    if (!out) {
      throw std::runtime_error("perfbench: cannot write " + args.record);
    }
  }

  json::Object result;
  result.emplace("correct", verdict.failed == 0);
  result.emplace("attempted", static_cast<double>(verdict.attempted));
  result.emplace("failed", static_cast<double>(verdict.failed));
  result.emplace("metrics", json::Value(std::move(metrics)));
  result.emplace("details", json::Value(std::move(details)));
  std::printf("%s\n", json::dump(json::Value(std::move(result))).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The process tier re-execs this binary as its worker.
  if (mak::harness::is_worker_invocation(argc, argv)) {
    return mak::harness::worker_main(argc, argv);
  }
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --scratch DIR [--tiny] [--reference FILE] "
                 "[--record FILE]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 1;
  }
}
