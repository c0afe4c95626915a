// Config-driven experiment runner: describe an experiment in a small
// key = value file and run it without recompiling.
//
//   ./example_run_config exp1.conf [exp2.conf ...]
//
// Several configs fan out across the sweep pool (DCP_JOBS workers;
// DCP_JOBS=1 forces serial) and their reports print in argument order.
// With no argument, runs a built-in demo configuration and prints the
// recognized keys.  See docs/running-experiments.md and src/harness/config.h.

#include <cstdio>
#include <string>
#include <vector>

#include "harness/config.h"
#include "harness/sweep.h"

int main(int argc, char** argv) {
  using namespace dcp;

  if (argc < 2) {
    const char* demo =
        "# demo: DCP + TIMELY under WebSearch-with-incast on a small CLOS\n"
        "experiment = websearch\n"
        "scheme = dcp\n"
        "with_cc = true\n"
        "cc = timely\n"
        "load = 0.5\n"
        "flows = 300\n"
        "spines = 4\n"
        "leaves = 4\n"
        "hosts_per_leaf = 4\n"
        "incast = true\n"
        "incast_fan_in = 12\n"
        "incast_bytes = 262144\n"
        "max_time_ms = 5000\n";
    std::printf("no config given; running the built-in demo:\n\n%s\n", demo);
    std::string err;
    auto cfg = parse_experiment_config(demo, &err);
    if (!cfg) {
      std::fprintf(stderr, "demo config failed to parse: %s\n", err.c_str());
      return 1;
    }
    std::printf("%s", run_configured_experiment(*cfg).c_str());
    std::printf("\nrecognized keys:");
    for (const std::string& key : config_keys()) std::printf(" %s", key.c_str());
    std::printf("\nplus `flow src=.. dst=.. bytes=.. msg=.. start=..` lines and a [faults] "
                "section\n");
    return 0;
  }

  // Parse every config up front so a typo in the last file is reported
  // before any simulation time is spent.
  std::vector<ExperimentConfig> cfgs;
  for (int i = 1; i < argc; ++i) {
    std::string err;
    auto cfg = load_experiment_config(argv[i], &err);
    if (!cfg) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 1;
    }
    cfgs.push_back(*cfg);
  }

  SweepRunner pool;
  const std::vector<std::string> reports = pool.run(
      cfgs.size(), [&](std::size_t i) { return run_configured_experiment(cfgs[i]); });

  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (reports.size() > 1) std::printf("==== %s ====\n", argv[i + 1]);
    std::printf("%s", reports[i].c_str());
  }
  return 0;
}
