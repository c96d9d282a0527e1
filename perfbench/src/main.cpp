// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload sweep|validate|admit --seed N
//             --seconds S --trace 0|1 [--trace-out PATH]
//
// Prints diagnostics on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  Exits 2
// on a usage error and 1 when the run could not produce a result.
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "util/parse.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload sweep|validate|admit "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n",
               why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      const auto v = dpcp::parse_uint(value);
      if (!v) return usage("--seed: invalid unsigned integer '" + value + "'");
      config.seed = *v;
      have_seed = true;
    } else if (arg == "--seconds") {
      const auto v = dpcp::parse_int(value, 1, 3600);
      if (!v) return usage("--seconds: expected 1..3600, got '" + value + "'");
      config.seconds = static_cast<double>(*v);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1")
        return usage("--trace: expected 0 or 1, got '" + value + "'");
      config.trace = value == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      config.trace_path = value;
    } else {
      return usage("unknown argument '" + arg + "'");
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds and --trace are required");

  try {
    perfbench::RunResult result(config.trace);
    if (workload == "sweep")
      result = perfbench::run_sweep_workload(config, false);
    else if (workload == "validate")
      result = perfbench::run_sweep_workload(config, true);
    else if (workload == "admit")
      result = perfbench::run_admit_workload(config);
    else
      return usage("unknown workload '" + workload + "'");
    std::string why;
    if (!result.well_formed(&why)) {
      std::fprintf(stderr, "perfbench: malformed result: %s\n", why.c_str());
      return 1;
    }
    std::cout << result.json() << std::endl;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
