// The benchmark's three workloads (see README.md for why each exists).
//
// Each Run* function generates its inputs from the seed, sets up several
// times (set-up time is reported as a median), warms up with one cycle
// whose answers become the reference every later repeat must match, then
// measures for `seconds`. In trace mode it alternates untraced and traced
// cycles and fills RunResult::layers from the traced ones.

#ifndef IDXSEL_PERFBENCH_WORKLOADS_H_
#define IDXSEL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the serve workload's state.
  std::string state_dir;
};

struct RunResult {
  std::vector<double> setup_s;     ///< one entry per set-up
  /// The workload's timed answers, by request type.
  std::map<std::string, std::vector<double>> latency_ms;
  std::vector<double> cycle_s;     ///< busy time of each timed cycle
  uint64_t requests_per_cycle = 0;  ///< requests (deltas) in one cycle
  uint64_t whatif_calls = 0;       ///< backend calls per reference cycle
  std::vector<double> cost_ratios;  ///< cost_after / cost_before, per answer
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;  ///< first few failure messages
  std::map<std::string, double> layers;  ///< per-layer metrics (trace mode)
  std::map<std::string, std::string> info;
  std::string ledger;  ///< attribution line (trace mode)

  void Fail(const std::string& what);
};

RunResult RunErpH6(const RunConfig& config);
RunResult RunEx1Advisor(const RunConfig& config);
RunResult RunServeDrift(const RunConfig& config);

}  // namespace perfbench

#endif  // IDXSEL_PERFBENCH_WORKLOADS_H_
