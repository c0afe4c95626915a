#pragma once
// Text-file experiment configuration: a small `key = value` format (with
// `#` comments) that maps onto the harness runners, so experiments can be
// scripted without recompiling.  Used by `examples/run_config`.
//
//   experiment = websearch        # websearch | longflow | collective | unequal_paths
//                                 # | fault_drill | wanflow
//   scheme     = dcp              # dcp irn irn-ecmp pfc mprdma cx5 timeout racktlp tcp fec
//   with_cc    = true
//   cc         = timely           # dcqcn | timely
//   load       = 0.5
//   flows      = 800
//   spines     = 4
//   leaves     = 4
//   hosts_per_leaf = 4
//   incast     = true
//   incast_fan_in = 12
//   ...
//
// An optional `[faults]` section switches to one-action-per-line fault
// syntax (see fault_plan.h); the resulting FaultPlan applies to the
// websearch, longflow and fault_drill experiments:
//
//   [faults]
//   link_flap at=2ms dur=500us sw=0 port=1
//   drop at=5ms dur=1ms rate=0.01
//
// An optional `[scheme]` section picks the scheme and carries its
// scheme-specific knobs (today: the FEC tier's group geometry and stream
// window); like `scheme = ...`, it applies to every experiment:
//
//   [scheme]
//   kind = fec
//   fec_k = 8
//   fec_m = 2
//   fec_stream_window_bytes = 0    # 0 = 2 x BDP
//   fec_nack_delay_us = 0          # 0 = max(rto_low, base_rtt / 2)
//
// The `wanflow` experiment drives the WAN topology (topo/wan.h):
//
//   experiment = wanflow
//   regions = 3
//   hosts_per_region = 4
//   wan_delay_ms = 25
//   wan_loss_rate = 0.05

#include <optional>
#include <string>

#include "harness/experiment.h"

namespace dcp {

struct ExperimentConfig {
  enum class Kind { kWebSearch, kLongFlow, kCollective, kUnequalPaths, kFaultDrill, kWanFlow };
  Kind kind = Kind::kWebSearch;

  WebSearchParams websearch;
  LongFlowParams longflow;
  CollectiveExpParams collective;
  FaultDrillParams faultdrill;
  WanFlowParams wanflow;
  double unequal_ratio = 4.0;
  FaultPlan faults;  // parsed [faults] section; copied into the params above
};

/// Parses config text.  On failure returns nullopt and, if `error` is
/// non-null, a message naming the offending line/key.
std::optional<ExperimentConfig> parse_experiment_config(const std::string& text,
                                                        std::string* error = nullptr);

/// Reads and parses a config file.
std::optional<ExperimentConfig> load_experiment_config(const std::string& path,
                                                       std::string* error = nullptr);

/// Runs the configured experiment and returns a printable report.
std::string run_configured_experiment(const ExperimentConfig& cfg);

}  // namespace dcp
