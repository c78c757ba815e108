// idxsel_perfbench — runs one benchmark workload and prints its raw results
// as one JSON object on stdout. run.py builds this program, runs it, and
// turns the raw results into the benchmark's metrics.
//
//   idxsel_perfbench --workload erp_h6|ex1_advisor|serve_drift --seed N
//                    --seconds S --trace 0|1 --state-dir DIR
//
// Exit codes: 0 on success, 1 when any correctness check failed (the
// JSON is still printed), 2 on bad arguments or a tuning variable in the
// environment.

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "kernel/simd.h"
#include "workloads.h"

namespace {

/// Variables that change what the library does by default. The benchmark
/// measures the defaults, so it refuses to run under any of them.
constexpr const char* kTuningVariables[] = {
    "IDXSEL_SHARDS",       "IDXSEL_THREADS",      "IDXSEL_KERNEL",
    "IDXSEL_FORCE_SCALAR", "IDXSEL_SIMD_RELAXED", "IDXSEL_AUDIT",
    "IDXSEL_JOURNAL",      "IDXSEL_OBS",
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return 1;
}

int Usage(const char* why) {
  std::cerr << "idxsel_perfbench: " << why
            << "\nusage: idxsel_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --state-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunConfig config;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--state-dir") {
      config.state_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || workload.empty() || !have_seed ||
      !(config.seconds > 0.0) || config.state_dir.empty()) {
    return Usage("missing or malformed arguments");
  }
  for (const char* name : kTuningVariables) {
    if (std::getenv(name) != nullptr) {
      return Usage((std::string(name) +
                    " is set; the benchmark measures the defaults")
                       .c_str());
    }
  }

  const size_t cpus = UsableCpus();

  perfbench::RunResult result;
  if (workload == "erp_h6") {
    result = perfbench::RunErpH6(config);
  } else if (workload == "ex1_advisor") {
    result = perfbench::RunEx1Advisor(config);
  } else if (workload == "serve_drift") {
    result = perfbench::RunServeDrift(config);
  } else {
    return Usage(("unknown workload " + workload).c_str());
  }

  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  result.info["nproc"] = std::to_string(cpus);
  result.info["simd_level"] = idxsel::kernel::simd::LevelName(
      idxsel::kernel::simd::ActiveLevel());
  result.info["build_type"] = PERFBENCH_BUILD_TYPE;

  std::ostringstream out;
  out << "{\"setup_s\":" << JsonArray(result.setup_s)
      << ",\"latency_ms\":{";
  bool first = true;
  for (const auto& [kind, values] : result.latency_ms) {
    out << (first ? "" : ",") << JsonString(kind) << ':' << JsonArray(values);
    first = false;
  }
  out << "},\"cycle_s\":" << JsonArray(result.cycle_s)
      << ",\"requests_per_cycle\":" << result.requests_per_cycle
      << ",\"whatif_calls\":" << result.whatif_calls
      << ",\"cost_ratios\":" << JsonArray(result.cost_ratios)
      << ",\"peak_rss_mb\":"
      << JsonNumber(static_cast<double>(usage.ru_maxrss) / 1024.0)
      << ",\"attempted\":" << result.attempted
      << ",\"failed\":" << result.failed << ",\"violations\":[";
  for (size_t i = 0; i < result.violations.size(); ++i) {
    out << (i > 0 ? "," : "") << JsonString(result.violations[i]);
  }
  out << "],\"layers\":{";
  first = true;
  for (const auto& [name, value] : result.layers) {
    out << (first ? "" : ",") << JsonString(name) << ':' << JsonNumber(value);
    first = false;
  }
  out << "},\"info\":{";
  first = true;
  for (const auto& [name, value] : result.info) {
    out << (first ? "" : ",") << JsonString(name) << ':' << JsonString(value);
    first = false;
  }
  out << "},\"ledger\":" << JsonString(result.ledger) << "}";
  std::cout << out.str() << std::endl;
  return result.failed == 0 ? 0 : 1;
}
