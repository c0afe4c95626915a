#include "harness/experiment.h"

#include <memory>

namespace dcp {

namespace {

WorldSpec runner_spec(SchemeKind scheme, const SchemeOptions& opt, std::uint64_t seed,
                      Time max_time, const FaultPlan& faults) {
  WorldSpec s;
  s.scheme = scheme;
  s.opt = opt;
  s.seed = seed;
  s.max_time = max_time;
  s.faults = faults;
  s.injector_seed = seed ^ kRunnerInjectorTag;
  return s;
}

// Hangs a RecoveryStats collector off the world's injector when the plan
// has any effect; plans whose actions are all no-ops attach nothing,
// keeping the event sequence bit-identical to a fault-free run.
struct Recovery {
  std::unique_ptr<RecoveryStats> stats;
  std::vector<std::size_t> episode_of_action;  // an action reverts only after it started

  explicit Recovery(SimWorld& w) : episode_of_action(w.spec().faults.actions.size()) {
    if (!w.spec().faults.has_effect()) return;
    stats = std::make_unique<RecoveryStats>(w.net());
    w.injector().on_fault_start = [this](std::size_t i, const FaultAction& a, Time t) {
      episode_of_action[i] = stats->begin_episode(fault_kind_name(a.kind), t);
    };
    w.injector().on_fault_end = [this](std::size_t i, const FaultAction&, Time t) {
      stats->end_episode(episode_of_action[i], t);
    };
  }

  // Finalizes the collector and copies episodes + wire counters out.
  void finish(SimWorld& w, std::vector<RecoveryStats::Episode>& episodes,
              FaultInjector::Counters& wire) {
    if (!stats) return;
    stats->finalize();
    episodes = stats->episodes();
    wire = w.injector().counters();
  }
};

// Runs the world to completion and returns the substrate speed.
CorePerf run_timed(SimWorld& w) {
  CorePerfTimer timer(w.shards());
  w.run_until_done();
  return timer.finish();
}

double gbps(std::uint64_t bytes, Time elapsed) {
  return static_cast<double>(bytes) * 8.0 / (static_cast<double>(elapsed) / kSecond) / 1e9;
}

// The readout every one-flow runner shares: completion, elapsed time, the
// end stats (as of the stop for an end that did not finish inside the
// budget) and goodput over the elapsed time.
template <typename Result>
void read_single_flow(SimWorld& w, Result& r) {
  const FlowRecord& rec = w.net().records().front();
  r.completed = rec.complete();
  r.elapsed = r.completed ? rec.fct() : w.net().sim().now();
  r.receiver = rec.receiver;
  r.sender = rec.sender;
  if (r.elapsed > 0) r.goodput_gbps = gbps(r.receiver.bytes_received, r.elapsed);
}

std::vector<InvariantViolation> oracle_violations(SimWorld& w) {
  if (w.oracle() == nullptr) return {};
  w.oracle()->finalize();
  return w.oracle()->violations();
}

}  // namespace

std::vector<WorldFlow> cross_flows(const WorldSpec& s, int count, std::uint64_t bytes,
                                   std::uint64_t msg_bytes) {
  std::vector<WorldFlow> flows;
  for (int i = 0; i < count; ++i) flows.push_back({i, s.shape().far + i, bytes, msg_bytes, 0});
  return flows;
}

WorldSpec long_flow_spec(const LongFlowParams& p) {
  WorldSpec s = runner_spec(p.scheme, p.opt, p.seed, p.max_time, p.faults);
  s.topo = TopoKind::kTestbed;
  s.testbed.cross_link_delay = p.cross_link_delay;
  s.loss_rate = p.loss_rate;
  s.flows = cross_flows(s, 1, p.flow_bytes, kRunnerMsgBytes);
  return s;
}

LongFlowResult read_long_flow(SimWorld& w) {
  Recovery faults(w);
  LongFlowResult r;
  r.core = run_timed(w);
  faults.finish(w, r.fault_episodes, r.wire);
  read_single_flow(w, r);
  r.sw = w.net().total_switch_stats();
  return r;
}

LongFlowResult run_long_flow(const LongFlowParams& p) {
  SimWorld w(long_flow_spec(p));
  return read_long_flow(w);
}

WorldSpec unequal_paths_spec(SchemeKind scheme, double ratio, std::uint64_t flow_bytes,
                             const SchemeOptions& opt, std::uint16_t sport_base) {
  WorldSpec s = runner_spec(scheme, opt, 1, milliseconds(500), {});
  s.topo = TopoKind::kTestbed;
  // Two cross links with capacities 1 : 1/ratio (the paper modifies port
  // capacities to 1:1, 1:4, 1:10).
  s.testbed.cross_links = {Bandwidth::gbps(100), Bandwidth::gbps(100.0 / ratio)};
  s.sport_base = sport_base;
  s.flows = cross_flows(s, 2, flow_bytes, kRunnerMsgBytes);
  return s;
}

UnequalPathsResult read_unequal_paths(SimWorld& w) {
  UnequalPathsResult r;
  r.core = run_timed(w);
  for (int i = 0; i < 2; ++i) {
    const FlowRecord& rec = w.net().records().at(static_cast<std::size_t>(i));
    r.flow_goodputs[i] = rec.complete() ? gbps(rec.spec.bytes, rec.fct())
                                        : gbps(rec.receiver.bytes_received, w.net().sim().now());
  }
  r.avg_goodput_gbps = (r.flow_goodputs[0] + r.flow_goodputs[1]) / 2.0;
  return r;
}

UnequalPathsResult run_unequal_paths(SchemeKind scheme, double ratio, std::uint64_t flow_bytes,
                                     const SchemeOptions& opt, std::uint16_t sport_base) {
  SimWorld w(unequal_paths_spec(scheme, ratio, flow_bytes, opt, sport_base));
  return read_unequal_paths(w);
}

WorldSpec fault_drill_spec(const FaultDrillParams& p) {
  WorldSpec s = runner_spec(p.scheme, p.opt, p.seed, p.max_time, p.faults);
  s.clos = p.clos;
  // One long cross-rack flow: first host of the first leaf to the first
  // host of the last leaf, so every leaf-spine link is a candidate path.
  s.flows = cross_flows(s, 1, p.flow_bytes, p.msg_bytes);
  s.oracle = p.oracle;
  return s;
}

FaultDrillResult read_fault_drill(SimWorld& w) {
  Recovery faults(w);
  FaultDrillResult r;
  r.core = run_timed(w);
  r.violations = oracle_violations(w);
  faults.finish(w, r.fault_episodes, r.wire);
  read_single_flow(w, r);
  r.sw = w.net().total_switch_stats();
  return r;
}

FaultDrillResult run_fault_drill(const FaultDrillParams& p) {
  SimWorld w(fault_drill_spec(p));
  return read_fault_drill(w);
}

WorldSpec wan_flow_spec(const WanFlowParams& p) {
  WorldSpec s = runner_spec(p.scheme, p.opt, p.seed, p.max_time, {});
  s.topo = TopoKind::kWan;
  s.wan = p.wan;
  s.flows = cross_flows(s, 1, p.flow_bytes, kRunnerMsgBytes);
  s.oracle = p.oracle;
  return s;
}

WanFlowResult read_wan_flow(SimWorld& w) {
  WanFlowResult r;
  r.core = run_timed(w);
  r.violations = oracle_violations(w);
  read_single_flow(w, r);
  r.wire_dropped = w.wire_dropped();
  return r;
}

WanFlowResult run_wan_flow(const WanFlowParams& p) {
  SimWorld w(wan_flow_spec(p));
  return read_wan_flow(w);
}

WorldSpec websearch_spec(const WebSearchParams& p) {
  WorldSpec s = runner_spec(p.scheme, p.opt, p.seed, p.max_time, p.faults);
  s.clos = p.clos;
  s.poisson_flows = p.num_flows;
  s.load = p.load;
  s.dist = p.dist;
  s.with_incast = p.with_incast;
  s.incast = p.incast;
  return s;
}

WebSearchResult read_websearch(SimWorld& w) {
  Recovery faults(w);
  WebSearchResult r;
  r.core = run_timed(w);
  faults.finish(w, r.fault_episodes, r.wire);
  const Network& net = w.net();
  for (const FlowRecord& rec : net.records()) {
    r.flows_total++;
    if (!rec.complete()) continue;
    r.flows_completed++;
    const Time ideal = net.ideal_fct(rec.spec.src, rec.spec.dst, rec.spec.bytes);
    if (rec.spec.background) {
      r.background.add(rec, ideal);
      r.timeouts_background += rec.sender.timeouts;
      r.timeouts_per_flow_bg.push_back(rec.sender.timeouts);
    } else {
      r.incast_flows.add(rec, ideal);
      r.timeouts_incast += rec.sender.timeouts;
      r.timeouts_per_flow_incast.push_back(rec.sender.timeouts);
    }
    if (rec.sender.data_packets_sent > 0) {
      r.retrans.push_back(RetransSample{
          rec.spec.bytes,
          static_cast<double>(rec.sender.retransmitted_packets) /
              static_cast<double>(rec.sender.data_packets_sent),
          rec.spec.background});
    }
  }
  r.sw = net.total_switch_stats();
  const std::uint64_t ho_total = r.sw.ho_seen + r.sw.dropped_ho;
  r.ho_loss_ratio =
      ho_total == 0 ? 0.0 : static_cast<double>(r.sw.dropped_ho) / static_cast<double>(ho_total);
  return r;
}

WebSearchResult run_websearch(const WebSearchParams& p) {
  SimWorld w(websearch_spec(p));
  return read_websearch(w);
}

WorldSpec collectives_spec(const CollectiveExpParams& p) {
  WorldSpec s = runner_spec(p.scheme, p.opt, 1, p.max_time, {});
  s.topo = p.use_clos ? TopoKind::kClos : TopoKind::kTestbed;
  s.clos = p.clos;
  s.groups = p.groups;
  s.members = p.members_per_group;
  s.collective = p.kind;
  s.collective_bytes = p.total_bytes;
  return s;
}

CollectiveResult read_collectives(SimWorld& w) {
  const WorldSpec& s = w.spec();
  CollectiveResult r;
  r.core = run_timed(w);
  r.all_done = true;
  for (const auto& c : w.collectives()) {
    r.all_done = r.all_done && c->done();
    r.jct_ms.push_back(to_ms(c->jct()));
  }
  for (const FlowRecord& rec : w.net().records()) {
    if (rec.complete()) r.flow_fct_ms.push_back(to_ms(rec.fct()));
  }
  CollectiveParams ideal;
  ideal.total_bytes = s.collective_bytes;
  ideal.members.resize(static_cast<std::size_t>(s.members));
  r.ideal_jct_ms = to_ms(s.collective == CollectiveKind::kAllReduce
                             ? RingAllReduce::ideal_jct(ideal, s.shape().rate)
                             : AllToAll::ideal_jct(ideal, s.shape().rate));
  return r;
}

CollectiveResult run_collectives(const CollectiveExpParams& p) {
  SimWorld w(collectives_spec(p));
  return read_collectives(w);
}

}  // namespace dcp
