#include "harness/experiment.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "harness/sweep.h"

namespace dcp {

namespace {

// Attaches a FaultInjector + RecoveryStats pair to a run when the plan has
// any effect.  Plans whose actions are all no-ops attach nothing, keeping
// the event sequence bit-identical to a fault-free run.
struct FaultHarness {
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<RecoveryStats> recovery;
  std::unordered_map<std::size_t, std::size_t> episode_of_action;

  /// `seed` is the run's seed; the injector draws from a derived stream.
  void attach(Network& net, const FaultPlan& plan, std::uint64_t seed) {
    if (!plan.has_effect()) return;
    injector = std::make_unique<FaultInjector>(net, plan, seed ^ 0xfa017);
    recovery = std::make_unique<RecoveryStats>(net);
    injector->on_fault_start = [this](std::size_t i, const FaultAction& a, Time t) {
      episode_of_action[i] = recovery->begin_episode(fault_kind_name(a.kind), t);
    };
    injector->on_fault_end = [this](std::size_t i, const FaultAction&, Time t) {
      auto it = episode_of_action.find(i);
      if (it != episode_of_action.end()) recovery->end_episode(it->second, t);
    };
  }

  // Finalizes the collector and copies episodes + wire counters out.
  void finish(std::vector<RecoveryStats::Episode>& episodes, FaultInjector::Counters& wire) {
    if (!injector) return;
    recovery->finalize();
    episodes = recovery->episodes();
    wire = injector->counters();
  }
};

// The readout every one-flow runner shares: completion, elapsed time, the
// end stats (as of the stop for an end that did not finish inside the
// budget) and goodput over the elapsed time.
template <typename Result>
void read_single_flow(Network& net, FlowId id, Time now, Result& r) {
  const FlowRecord& rec = net.record(id);
  r.completed = rec.complete();
  r.elapsed = r.completed ? rec.fct() : now;
  r.receiver = rec.receiver;
  r.sender = rec.sender;
  if (r.elapsed > 0) {
    r.goodput_gbps = static_cast<double>(r.receiver.bytes_received) * 8.0 /
                     (static_cast<double>(r.elapsed) / kSecond) / 1e9;
  }
}

}  // namespace

LongFlowResult run_long_flow(const LongFlowParams& p) {
  ShardGroup shards(resolve_shards(/*topo_max=*/2, p.faults.has_effect()));
  Simulator& sim = shards.sim(0);
  Logger log(LogLevel::kError);
  Network net(shards, log);

  SchemeSetup setup = make_scheme(p.scheme, p.opt);
  TestbedParams tb;
  tb.sw = setup.sw;
  tb.cross_link_delay = p.cross_link_delay;
  TestbedTopology topo = build_testbed(net, tb);
  // Loss is injected at switch 1 only (the paper manipulates one switch).
  topo.sw1->config().inject_loss_rate = p.loss_rate;
  apply_scheme(net, setup);

  FlowSpec spec;
  spec.src = topo.hosts[0]->id();
  spec.dst = topo.hosts[tb.hosts_per_switch]->id();  // cross-switch
  spec.bytes = p.flow_bytes;
  spec.start_time = 0;
  spec.msg_bytes = kRunnerMsgBytes;
  const FlowId id = net.start_flow(spec);

  FaultHarness faults;
  faults.attach(net, p.faults, p.seed);

  CorePerfTimer timer(shards);
  net.run_until_done(p.max_time);

  LongFlowResult r;
  r.core = timer.finish();
  faults.finish(r.fault_episodes, r.wire);
  read_single_flow(net, id, sim.now(), r);
  r.sw = net.total_switch_stats();
  return r;
}

UnequalPathsResult run_unequal_paths(SchemeKind scheme, double ratio, std::uint64_t flow_bytes,
                                     const SchemeOptions& opt, std::uint16_t sport_base) {
  Simulator sim;
  Logger log(LogLevel::kError);
  Network net(sim, log);
  net.set_sport_base(sport_base);

  SchemeSetup setup = make_scheme(scheme, opt);
  TestbedParams tb;
  tb.sw = setup.sw;
  // Two cross links with capacities 1 : 1/ratio (the paper modifies port
  // capacities to 1:1, 1:4, 1:10).
  tb.cross_links = {Bandwidth::gbps(100), Bandwidth::gbps(100.0 / ratio)};
  TestbedTopology topo = build_testbed(net, tb);
  apply_scheme(net, setup);

  // Two senders on switch 1, two receivers on switch 2.
  std::vector<FlowId> ids;
  for (int i = 0; i < 2; ++i) {
    FlowSpec spec;
    spec.src = topo.hosts[static_cast<std::size_t>(i)]->id();
    spec.dst = topo.hosts[static_cast<std::size_t>(tb.hosts_per_switch + i)]->id();
    spec.bytes = flow_bytes;
    spec.start_time = 0;
    spec.msg_bytes = kRunnerMsgBytes;
    ids.push_back(net.start_flow(spec));
  }
  CorePerfTimer timer(sim);
  net.run_until_done(milliseconds(500));

  UnequalPathsResult r;
  r.core = timer.finish();
  for (int i = 0; i < 2; ++i) {
    const FlowRecord& rec = net.record(ids[static_cast<std::size_t>(i)]);
    double g = 0.0;
    if (rec.complete()) {
      g = static_cast<double>(rec.spec.bytes) * 8.0 /
          (static_cast<double>(rec.fct()) / kSecond) / 1e9;
    } else {
      g = static_cast<double>(rec.receiver.bytes_received) * 8.0 /
          (static_cast<double>(sim.now()) / kSecond) / 1e9;
    }
    r.flow_goodputs[i] = g;
  }
  r.avg_goodput_gbps = (r.flow_goodputs[0] + r.flow_goodputs[1]) / 2.0;
  return r;
}

FaultDrillResult run_fault_drill(const FaultDrillParams& p) {
  Simulator sim;
  Logger log(LogLevel::kError);
  Network net(sim, log);

  SchemeSetup setup = make_scheme(p.scheme, p.opt);
  ClosParams clos = p.clos;
  clos.sw = setup.sw;
  ClosTopology topo = build_clos(net, clos);
  apply_scheme(net, setup);

  // One long cross-rack flow: first host of the first leaf to the first
  // host of the last leaf, so every leaf-spine link is a candidate path.
  FlowSpec spec;
  spec.src = topo.hosts.front()->id();
  spec.dst = topo.hosts[static_cast<std::size_t>(clos.num_hosts() - clos.hosts_per_leaf)]->id();
  spec.bytes = p.flow_bytes;
  spec.start_time = 0;
  spec.msg_bytes = p.msg_bytes;
  const FlowId id = net.start_flow(spec);

  std::unique_ptr<InvariantOracle> oracle;
  if (p.oracle) oracle = std::make_unique<InvariantOracle>(net);

  FaultHarness faults;
  faults.attach(net, p.faults, p.seed);

  CorePerfTimer timer(sim);
  net.run_until_done(p.max_time);

  FaultDrillResult r;
  r.core = timer.finish();
  if (oracle) {
    oracle->finalize();
    r.violations = oracle->violations();
  }
  faults.finish(r.fault_episodes, r.wire);
  read_single_flow(net, id, sim.now(), r);
  r.sw = net.total_switch_stats();
  return r;
}

WanFlowResult run_wan_flow(const WanFlowParams& p) {
  ShardGroup shards(resolve_shards(p.wan.regions, /*has_faults=*/false));
  Simulator& sim = shards.sim(0);
  Logger log(LogLevel::kError);
  Network net(shards, log);

  SchemeOptions opt = p.opt;
  WanParams wan = p.wan;
  wan.wan_seed = p.seed;
  // Base RTT, RTOs and the NACK delay follow the WAN round trip, not the
  // datacenter defaults (a 320 us RTO under a 50 ms RTT would retransmit
  // the whole flow many times over before the first ACK).
  const Time rtt = 2 * (2 * wan.host_link_delay + wan.wan_delay);
  opt.base_rtt = rtt;
  opt.rto_high = 2 * rtt + microseconds(320);
  opt.rto_low = rtt / 2 + microseconds(100);
  opt.dcp_msg_timeout = 2 * rtt + milliseconds(1);
  opt.line_rate = wan.wan_link;
  SchemeSetup setup = make_scheme(p.scheme, opt);
  wan.sw = setup.sw;
  // The long pipe must fit in the region switch: size buffers to the BDP
  // (a 25 ms 100G span is ~312 MB of in-flight data per direction).
  const std::uint64_t bdp = bdp_bytes(wan.wan_link, 2 * wan.wan_delay);
  wan.sw.buffer_bytes = std::max(wan.sw.buffer_bytes, 2 * bdp);
  wan.sw.max_data_queue_bytes = std::max(wan.sw.max_data_queue_bytes, 2 * bdp);
  WanTopology topo = build_wan(net, wan);
  apply_scheme(net, setup);

  FlowSpec spec;
  spec.src = topo.hosts[0]->id();
  spec.dst = topo.hosts[static_cast<std::size_t>(wan.hosts_per_region)]->id();  // region 1
  spec.bytes = p.flow_bytes;
  spec.start_time = 0;
  spec.msg_bytes = kRunnerMsgBytes;
  const FlowId id = net.start_flow(spec);

  std::unique_ptr<InvariantOracle> oracle;
  if (p.oracle) oracle = std::make_unique<InvariantOracle>(net);

  CorePerfTimer timer(shards);
  net.run_until_done(p.max_time);

  WanFlowResult r;
  r.core = timer.finish();
  if (oracle) {
    oracle->finalize();
    r.violations = oracle->violations();
  }
  read_single_flow(net, id, sim.now(), r);
  r.wire_dropped = topo.wire_dropped();
  return r;
}

WebSearchResult run_websearch(const WebSearchParams& p) {
  ShardGroup shards(resolve_shards(p.clos.leaves, p.faults.has_effect()));
  Logger log(LogLevel::kError);
  Network net(shards, log);

  SchemeSetup setup = make_scheme(p.scheme, p.opt);
  ClosParams clos = p.clos;
  clos.sw = setup.sw;
  ClosTopology topo = build_clos(net, clos);
  apply_scheme(net, setup);

  FlowGenParams fg;
  fg.load = p.load;
  fg.host_rate = clos.link;
  fg.num_flows = p.num_flows;
  fg.seed = p.seed;
  fg.msg_bytes = kRunnerMsgBytes;
  generate_poisson_flows(
      net, topo.hosts,
      p.dist == WorkloadDist::kDataMining ? SizeDist::datamining() : SizeDist::websearch(), fg);

  if (p.with_incast) {
    IncastParams ip = p.incast;
    ip.host_rate = clos.link;
    ip.msg_bytes = kRunnerMsgBytes;
    generate_incast(net, topo.hosts, ip);
  }

  FaultHarness faults;
  faults.attach(net, p.faults, p.seed);

  CorePerfTimer timer(shards);
  net.run_until_done(p.max_time);

  WebSearchResult r;
  r.core = timer.finish();
  faults.finish(r.fault_episodes, r.wire);
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

CollectiveResult run_collectives(const CollectiveExpParams& p) {
  Simulator sim;
  Logger log(LogLevel::kError);
  Network net(sim, log);

  SchemeSetup setup = make_scheme(p.scheme, p.opt);
  std::vector<Host*> hosts;
  Bandwidth rate = Bandwidth::gbps(100);
  if (p.use_clos) {
    ClosParams clos = p.clos;
    clos.sw = setup.sw;
    ClosTopology topo = build_clos(net, clos);
    hosts = topo.hosts;
    rate = clos.link;
  } else {
    TestbedParams tb;
    tb.sw = setup.sw;
    TestbedTopology topo = build_testbed(net, tb);
    hosts = topo.hosts;
    rate = tb.host_link;
  }
  apply_scheme(net, setup);

  std::vector<std::unique_ptr<Collective>> collectives;
  CollectiveParams cp_template;
  cp_template.total_bytes = p.total_bytes;
  cp_template.msg_bytes = kRunnerMsgBytes;

  for (int g = 0; g < p.groups; ++g) {
    CollectiveParams cp = cp_template;
    cp.group_tag = g;
    for (int m = 0; m < p.members_per_group; ++m) {
      // Spread members across the topology: member m of group g is host
      // m * groups + g, interleaving groups across racks like a real job
      // placement would.
      const std::size_t idx =
          (static_cast<std::size_t>(m) * static_cast<std::size_t>(p.groups) +
           static_cast<std::size_t>(g)) %
          hosts.size();
      cp.members.push_back(hosts[idx]->id());
    }
    if (p.kind == CollectiveKind::kAllReduce) {
      collectives.push_back(std::make_unique<RingAllReduce>(net, cp));
    } else {
      collectives.push_back(std::make_unique<AllToAll>(net, cp));
    }
  }

  // Collectives create flows dynamically; run until every group reports
  // completion or the budget expires.
  CorePerfTimer timer(sim);
  while (sim.now() < p.max_time) {
    bool all = true;
    for (const auto& c : collectives) all = all && c->done();
    if (all) break;
    sim.run(std::min(p.max_time, sim.now() + milliseconds(1)));
    if (sim.idle()) break;
  }

  CollectiveResult r;
  r.core = timer.finish();
  r.all_done = true;
  for (const auto& c : collectives) {
    r.all_done = r.all_done && c->done();
    r.jct_ms.push_back(to_ms(c->jct()));
  }
  for (const FlowRecord& rec : net.records()) {
    if (rec.complete()) r.flow_fct_ms.push_back(to_ms(rec.fct()));
  }
  CollectiveParams ideal_cp = cp_template;
  ideal_cp.members.resize(static_cast<std::size_t>(p.members_per_group));
  r.ideal_jct_ms = to_ms(p.kind == CollectiveKind::kAllReduce
                             ? RingAllReduce::ideal_jct(ideal_cp, rate)
                             : AllToAll::ideal_jct(ideal_cp, rate));
  return r;
}

}  // namespace dcp
