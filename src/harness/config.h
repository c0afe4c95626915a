#pragma once
// The world grammar: a small `key = value` text format (with `#` comments)
// that describes a WorldSpec, so experiments run without recompiling and a
// fuzz repro is a config file.  Used by `examples/run_config` and
// `run_fuzz --replay`; docs/running-experiments.md lists every key.
//
//   experiment = websearch   # websearch longflow collective unequal_paths fault_drill wanflow
//   scheme = dcp             # dcp irn irn-ecmp pfc mprdma cx5 timeout racktlp tcp fec
//   spines = 4
//   flows = 800              # Poisson arrivals
//   flow src=0 dst=5 bytes=65536 msg=4096 start=5us
//   [faults]                 # one action per line, as in fault_plan.h
//   link_flap at=2ms dur=500us sw=0 port=1
//
// `experiment` picks the readout and the defaults every other key
// overrides: the runner's topology, budget, seed and workload
// (harness/experiment.h).  A topology key (spines, fattree_k, regions,
// loss_rate, ...) switches the world to its topology, and keys of two
// topologies in one file fail.  `flow` lines replace the experiment's own
// flows, which `flow_bytes` sizes instead.  Time keys take a bare number in
// their unit or a number with a unit (`max_time_ms = 1562.5us`).  Without
// `injector_seed` the injector's seed derives from `seed`.  A `[scheme]`
// header may group the scheme keys; every key is valid in every section but
// [faults].

#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace dcp {

struct ExperimentConfig {
  enum class Kind { kWebSearch, kLongFlow, kCollective, kUnequalPaths, kFaultDrill, kWanFlow };
  Kind kind = Kind::kWebSearch;  // the readout
  WorldSpec spec;
};

/// Parses config text.  On failure returns nullopt and, if `error` is
/// non-null, a message naming the offending line/key.  A world the builder
/// cannot build fails here.
std::optional<ExperimentConfig> parse_experiment_config(const std::string& text,
                                                        std::string* error = nullptr);

/// Reads and parses a config file.
std::optional<ExperimentConfig> load_experiment_config(const std::string& path,
                                                       std::string* error = nullptr);

/// The canonical text of a world: every key that describes it, its flow
/// lines and its [faults] section.  Parses back to a spec with the same
/// identity() up to the fields that have no text form.
std::string world_text(const WorldSpec& s);

/// Every key the grammar accepts, in the order world_text writes them.
std::vector<std::string> config_keys();

/// Runs the configured experiment and returns a printable report.
std::string run_configured_experiment(const ExperimentConfig& cfg);

}  // namespace dcp
