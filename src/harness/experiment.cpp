#include "harness/experiment.h"

#include <memory>

namespace dcp {

namespace {

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

std::vector<InvariantViolation> oracle_violations(SimWorld& w) {
  if (w.oracle() == nullptr) return {};
  w.oracle()->finalize();
  return w.oracle()->violations();
}

}  // namespace

WorldSpec experiment_world(Experiment e) {
  // A long flow from host `src` across the fabric, in 4 MB messages.
  const auto long_flow = [](int src) {
    return WorldFlow{src, WorldFlow::kAcross, 25ull * 1000 * 1000, kFlowMsgBytes};
  };
  WorldSpec s;
  switch (e) {
    case Experiment::kWebSearch:
      s.seed = 42;
      s.poisson_flows = 500;
      s.max_time = seconds(2);
      break;
    case Experiment::kLongFlow:
      s.topo = TopoKind::kTestbed;
      s.flows = {long_flow(0)};
      s.max_time = milliseconds(200);
      break;
    case Experiment::kCollective:
      s.groups = 4;
      s.max_time = seconds(5);
      break;
    case Experiment::kUnequalPaths:
      s.topo = TopoKind::kTestbed;
      s.testbed.cross_links = unequal_cross_links(4.0);
      s.flows = {long_flow(0), long_flow(1)};
      s.max_time = milliseconds(500);
      break;
    case Experiment::kFaultDrill:
      s.clos.spines = s.clos.leaves = s.clos.hosts_per_leaf = 2;
      // Receivers account unique bytes at *message completion*, so the
      // drill posts its flow in messages well below what line rate
      // delivers in one RecoveryStats::kSampleInterval: with one
      // flow-sized message the goodput sampler would see nothing until
      // the very end.
      s.flows = {{0, WorldFlow::kAcross, 8ull * 1000 * 1000, 64 * 1024}};
      s.max_time = milliseconds(100);
      break;
    case Experiment::kWanFlow:
      s.topo = TopoKind::kWan;
      s.scheme = SchemeKind::kFec;
      s.flows = {long_flow(0)};
      s.max_time = seconds(10);
      break;
  }
  return s;
}

std::vector<Bandwidth> unequal_cross_links(double ratio) {
  return {Bandwidth::gbps(100), Bandwidth::gbps(100.0 / ratio)};
}

FlowResult read_flow(SimWorld& w) {
  Recovery faults(w);
  FlowResult r;
  r.core = run_timed(w);
  r.violations = oracle_violations(w);
  faults.finish(w, r.fault_episodes, r.wire);
  // The end stats are as of the stop for an end that did not finish
  // inside the budget.
  const FlowRecord& rec = w.net().records().front();
  r.completed = rec.complete();
  r.elapsed = r.completed ? rec.fct() : w.net().sim().now();
  r.receiver = rec.receiver;
  r.sender = rec.sender;
  if (r.elapsed > 0) r.goodput_gbps = gbps(r.receiver.bytes_received, r.elapsed);
  r.sw = w.net().total_switch_stats();
  r.wire_dropped = w.wire_dropped();
  return r;
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

}  // namespace dcp
