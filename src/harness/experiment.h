#pragma once
// Experiments: each is a preset world plus a readout.  A bench, a test and
// a config file (harness/config.h) all describe a run the same way: take
// the preset, set WorldSpec fields, build the SimWorld (harness/world.h),
// then read it:
//
//   WorldSpec s = experiment_world(Experiment::kLongFlow);
//   s.scheme = SchemeKind::kIrn;
//   s.loss_rate = 0.01;
//   SimWorld w(s);
//   const FlowResult r = read_flow(w);
//
// A readout runs the world to completion and reads back the measurements
// the paper plots.

#include <cstdint>
#include <utility>
#include <vector>

#include "harness/world.h"
#include "stats/core_perf.h"
#include "stats/fct_stats.h"
#include "stats/recovery_stats.h"
#include "workload/flowgen.h"

namespace dcp {

enum class Experiment { kWebSearch, kLongFlow, kCollective, kUnequalPaths, kFaultDrill, kWanFlow };

/// Every experiment under its config name (`experiment = longflow`).
inline constexpr std::pair<const char*, Experiment> kExperiments[] = {
    {"websearch", Experiment::kWebSearch},     {"longflow", Experiment::kLongFlow},
    {"collective", Experiment::kCollective},   {"unequal_paths", Experiment::kUnequalPaths},
    {"fault_drill", Experiment::kFaultDrill},  {"wanflow", Experiment::kWanFlow}};

/// The world an experiment starts from:
///  - websearch: Poisson WebSearch arrivals on the Clos (Figs. 1, 2, 13,
///    15, 16; Table 5), optionally with incast;
///  - longflow: one long flow across the testbed (Figs. 10, 17), with
///    `loss_rate` at switch 1;
///  - collective: ring all-reduce or all-to-all groups on the Clos, or on
///    the testbed (Figs. 12, 14);
///  - unequal_paths: two flows over the testbed's two unequal cross links
///    (Fig. 11); `sport_base` varies the ECMP hash draw across trials;
///  - fault_drill: one long flow across a 2x2x2 Clos, under `faults`;
///  - wanflow: one flow from region 0 to region 1 of the WAN (Fig. 18);
///    its wire loss (`wan.wan_loss_rate`) is drawn per wire direction on
///    the sending side, so it shards by region bit-identically.
/// A preset's flows go across the fabric (WorldFlow::kAcross), so they
/// follow a topology the caller resizes.
WorldSpec experiment_world(Experiment e);

/// The testbed's two cross links at capacities 1 : 1/ratio (the paper sets
/// port capacities to 1:1, 1:4 and 1:10).
std::vector<Bandwidth> unequal_cross_links(double ratio);

// ---------------------------------------------------------------------------
// One flow: longflow, fault_drill and wanflow
// ---------------------------------------------------------------------------

struct FlowResult {
  double goodput_gbps = 0.0;   // receiver bytes / elapsed
  bool completed = false;
  Time elapsed = 0;
  SenderStats sender;
  ReceiverStats receiver;
  Switch::Stats sw;
  std::vector<RecoveryStats::Episode> fault_episodes;  // one per fired action
  FaultInjector::Counters wire;                        // wire-level fault tally
  std::uint64_t wire_dropped = 0;  // random WAN-loss drops across the mesh
  CorePerf core;  // simulator substrate speed for this run
  std::vector<InvariantViolation> violations;  // only when the oracle is armed
};

/// Reads the world's one flow.  A plan with an effect also yields its
/// recovery episodes and wire tally; a plan whose actions are all no-ops
/// attaches nothing, so the run stays bit-identical to a fault-free one.
FlowResult read_flow(SimWorld& w);

// ---------------------------------------------------------------------------
// Adaptive routing over unequal paths (Fig. 11)
// ---------------------------------------------------------------------------

struct UnequalPathsResult {
  double avg_goodput_gbps = 0.0;
  double flow_goodputs[2] = {0.0, 0.0};
  CorePerf core;
};

UnequalPathsResult read_unequal_paths(SimWorld& w);

// ---------------------------------------------------------------------------
// WebSearch background (+ optional incast) on the Clos
// ---------------------------------------------------------------------------

struct RetransSample {
  std::uint64_t flow_bytes;
  double retrans_ratio;  // retransmitted / total data packets sent
  bool background;
};

struct WebSearchResult {
  FctStats background;       // slowdowns of background flows
  FctStats incast_flows;     // slowdowns of incast flows
  std::uint64_t timeouts_background = 0;
  std::uint64_t timeouts_incast = 0;
  std::vector<RetransSample> retrans;   // per-flow retransmission ratios
  std::vector<std::uint64_t> timeouts_per_flow_bg;
  std::vector<std::uint64_t> timeouts_per_flow_incast;
  Switch::Stats sw;
  std::size_t flows_total = 0;
  std::size_t flows_completed = 0;
  double ho_loss_ratio = 0.0;  // dropped HO / (dropped + delivered) (Table 5)
  std::vector<RecoveryStats::Episode> fault_episodes;
  FaultInjector::Counters wire;
  CorePerf core;
};

WebSearchResult read_websearch(SimWorld& w);

// ---------------------------------------------------------------------------
// Collectives (Figs. 12, 14)
// ---------------------------------------------------------------------------

struct CollectiveResult {
  std::vector<double> jct_ms;        // one per group
  std::vector<double> flow_fct_ms;   // all individual flows (CDF source)
  double ideal_jct_ms = 0.0;
  bool all_done = false;
  CorePerf core;
};

CollectiveResult read_collectives(SimWorld& w);

}  // namespace dcp
