#pragma once
// One-call experiment runners shared by the bench binaries and the
// integration tests.  run_X(params) maps its params onto a WorldSpec
// (X_spec), builds the SimWorld (harness/world.h), then runs it and reads
// back the measurements the paper plots (read_X).  The readouts also serve
// config files (harness/config.h), which describe a world directly.

#include <cstdint>
#include <vector>

#include "harness/world.h"
#include "stats/core_perf.h"
#include "stats/fct_stats.h"
#include "stats/recovery_stats.h"
#include "workload/flowgen.h"

namespace dcp {

/// The injector seed every runner derives from its run seed (seed ^ tag).
inline constexpr std::uint64_t kRunnerInjectorTag = 0xfa017;

/// The flows the one-flow runners post: flow i goes from host i to host
/// shape().far + i, across the fabric.  All start at 0.
std::vector<WorldFlow> cross_flows(const WorldSpec& s, int count, std::uint64_t bytes,
                                   std::uint64_t msg_bytes);

// ---------------------------------------------------------------------------
// Long-running flow on the testbed (Figs. 10, 17, long-haul)
// ---------------------------------------------------------------------------

struct LongFlowParams {
  SchemeKind scheme = SchemeKind::kDcp;
  SchemeOptions opt;
  double loss_rate = 0.0;            // injected at switch 1
  std::uint64_t flow_bytes = 25ull * 1000 * 1000;
  Time max_time = milliseconds(200);
  Time cross_link_delay = microseconds(1);  // 50 us = the 10 km fiber
  std::uint64_t seed = 1;
  FaultPlan faults;  // optional: injected while the flow runs
};

struct LongFlowResult {
  double goodput_gbps = 0.0;   // receiver bytes / elapsed
  bool completed = false;
  Time elapsed = 0;
  SenderStats sender;
  ReceiverStats receiver;
  Switch::Stats sw;
  std::vector<RecoveryStats::Episode> fault_episodes;  // one per fired action
  FaultInjector::Counters wire;                        // wire-level fault tally
  CorePerf core;  // simulator substrate speed for this run
};

WorldSpec long_flow_spec(const LongFlowParams& p);
LongFlowResult read_long_flow(SimWorld& w);
LongFlowResult run_long_flow(const LongFlowParams& p);

// ---------------------------------------------------------------------------
// Adaptive routing over unequal paths (Fig. 11)
// ---------------------------------------------------------------------------

struct UnequalPathsResult {
  double avg_goodput_gbps = 0.0;
  double flow_goodputs[2] = {0.0, 0.0};
  CorePerf core;
};

/// Two cross-switch flows over two cross links with capacity `ratio`:1.
/// `sport_base` varies the ECMP hash draw across trials.
WorldSpec unequal_paths_spec(SchemeKind scheme, double ratio, std::uint64_t flow_bytes,
                             const SchemeOptions& opt = {}, std::uint16_t sport_base = 10000);
UnequalPathsResult read_unequal_paths(SimWorld& w);
UnequalPathsResult run_unequal_paths(SchemeKind scheme, double ratio,
                                     std::uint64_t flow_bytes = 12ull * 1000 * 1000,
                                     const SchemeOptions& opt = {},
                                     std::uint16_t sport_base = 10000);

// ---------------------------------------------------------------------------
// WebSearch background (+ optional incast) on the CLOS fabric
// (Figs. 1, 2, 13, 15, 16; Table 5)
// ---------------------------------------------------------------------------

struct WebSearchParams {
  SchemeKind scheme = SchemeKind::kDcp;
  SchemeOptions opt;
  ClosParams clos;                 // sw config is overwritten by the scheme
  WorkloadDist dist = WorkloadDist::kWebSearch;
  double load = 0.3;
  std::size_t num_flows = 500;
  bool with_incast = false;
  IncastParams incast;
  Time max_time = seconds(2);
  std::uint64_t seed = 42;
  FaultPlan faults;  // optional: injected under the background workload
};

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

WorldSpec websearch_spec(const WebSearchParams& p);
WebSearchResult read_websearch(SimWorld& w);
WebSearchResult run_websearch(const WebSearchParams& p);

// ---------------------------------------------------------------------------
// Fault drill: one long cross-rack flow under a FaultPlan
// ---------------------------------------------------------------------------
//
// The canonical robustness experiment: a small leaf-spine fabric carries a
// single long flow, the plan's faults fire mid-transfer, and the result
// reports how the scheme rode them out.  An empty (or all-no-op) plan runs
// bit-identically to a fault-free baseline.

struct FaultDrillParams {
  SchemeKind scheme = SchemeKind::kDcp;
  SchemeOptions opt;
  FaultPlan faults;
  ClosParams clos = [] { ClosParams c; c.spines = c.leaves = c.hosts_per_leaf = 2; return c; }();
  std::uint64_t flow_bytes = 8ull * 1000 * 1000;
  // Receivers account unique bytes at *message completion*, so the drill
  // posts the flow at a granularity well below what line rate delivers in
  // one RecoveryStats::kSampleInterval — with one flow-sized message the
  // goodput sampler would see nothing until the very end.
  std::uint64_t msg_bytes = 64 * 1024;
  Time max_time = milliseconds(100);
  std::uint64_t seed = 1;
  /// Arms the InvariantOracle for the whole run; violations land in
  /// FaultDrillResult::violations.  Off by default (≈ zero-cost hooks).
  bool oracle = false;
};

struct FaultDrillResult {
  double goodput_gbps = 0.0;
  bool completed = false;
  Time elapsed = 0;
  SenderStats sender;
  ReceiverStats receiver;
  Switch::Stats sw;
  std::vector<RecoveryStats::Episode> fault_episodes;
  FaultInjector::Counters wire;
  CorePerf core;
  std::vector<InvariantViolation> violations;  // only when params.oracle
};

WorldSpec fault_drill_spec(const FaultDrillParams& p);
FaultDrillResult read_fault_drill(SimWorld& w);
FaultDrillResult run_fault_drill(const FaultDrillParams& p);

// ---------------------------------------------------------------------------
// WAN cross-region flow (bench_fig18): lossy long-haul links
// ---------------------------------------------------------------------------
//
// One flow from region 0 to region 1 over the WAN mesh.  Ambient wire loss
// comes from the topology's per-direction ChannelFault substreams, which
// are shard-safe (each is drawn only by its channel's source-side thread),
// so these runs shard by region and stay bit-identical across DCP_SHARDS.

struct WanFlowParams {
  SchemeKind scheme = SchemeKind::kFec;
  SchemeOptions opt;
  WanParams wan;
  std::uint64_t flow_bytes = 25ull * 1000 * 1000;
  Time max_time = seconds(10);
  std::uint64_t seed = 1;
  bool oracle = false;
};

struct WanFlowResult {
  double goodput_gbps = 0.0;
  bool completed = false;
  Time elapsed = 0;
  SenderStats sender;
  ReceiverStats receiver;
  std::uint64_t wire_dropped = 0;  // random WAN-loss drops across the mesh
  CorePerf core;
  std::vector<InvariantViolation> violations;  // only when params.oracle
};

WorldSpec wan_flow_spec(const WanFlowParams& p);
WanFlowResult read_wan_flow(SimWorld& w);
WanFlowResult run_wan_flow(const WanFlowParams& p);

// ---------------------------------------------------------------------------
// Collectives (Figs. 12, 14)
// ---------------------------------------------------------------------------

struct CollectiveExpParams {
  SchemeKind scheme = SchemeKind::kDcp;
  SchemeOptions opt;
  CollectiveKind kind = CollectiveKind::kAllReduce;
  int groups = 4;
  int members_per_group = 4;
  std::uint64_t total_bytes = 16ull * 1024 * 1024;  // per collective op
  bool use_clos = true;      // false: the 2-switch testbed (Fig. 12)
  ClosParams clos;
  Time max_time = seconds(5);
};

struct CollectiveResult {
  std::vector<double> jct_ms;        // one per group
  std::vector<double> flow_fct_ms;   // all individual flows (CDF source)
  double ideal_jct_ms = 0.0;
  bool all_done = false;
  CorePerf core;
};

WorldSpec collectives_spec(const CollectiveExpParams& p);
CollectiveResult read_collectives(SimWorld& w);
CollectiveResult run_collectives(const CollectiveExpParams& p);

}  // namespace dcp
