// Runner pins: each experiment readout's result, hashed field by field,
// for a small fixed world per experiment and per branch a readout takes
// (incast and a fault plan under websearch, loss plus a plan on the long
// flow, the oracle-armed drill, a lossy WAN, each collective on the Clos
// and the testbed).  The stats PODs, doubles by bit pattern, the FCT and
// JCT vectors, fault episodes and wire counters all feed the hash; CorePerf
// does not, because it holds wall time.  Each world runs serially, and each
// that can shard runs on two shards too.
//
// A pin moves only when a readout's observable output moves.  To record
// the value for a new input, add it with `want` 0, build this test against
// the parent commit's libraries and run it there: each failure prints the
// value to paste.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <type_traits>

#include "harness/experiment.h"
#include "sim/snapshot.h"

namespace dcp {
namespace {

template <typename T>
void hash_pod(Fnv64& h, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(sizeof(T) % 8 == 0, "u64/i64/double aggregates only");
  for (std::size_t i = 0; i < sizeof v; i += 8) {
    std::uint64_t lane;
    std::memcpy(&lane, reinterpret_cast<const std::uint8_t*>(&v) + i, 8);
    h.u64(lane);
  }
}

void hash_doubles(Fnv64& h, const std::vector<double>& v) {
  h.u64(v.size());
  for (double d : v) h.f64(d);
}

void hash_fct(Fnv64& h, FctStats& s) {
  h.u64(s.flows());
  hash_doubles(h, s.overall().samples());  // insertion order: read before any percentile
  for (double p : {0.0, 50.0, 99.0, 100.0}) hash_doubles(h, s.per_bucket_percentile(p));
}

void hash_faults(Fnv64& h, const std::vector<RecoveryStats::Episode>& episodes,
                 const FaultInjector::Counters& wire) {
  h.u64(episodes.size());
  for (const RecoveryStats::Episode& e : episodes) {
    for (char c : e.label) h.u64(static_cast<unsigned char>(c));
    h.i64(e.start);
    h.i64(e.end);
    h.f64(e.baseline_gbps);
    h.f64(e.dip_gbps);
    h.f64(e.dip_frac);
    h.i64(e.dip_duration);
    h.i64(e.time_to_recover);
    h.u64(e.recovered ? 1 : 0);
    h.u64(e.spurious_retx);
    h.u64(e.timeouts);
  }
  hash_pod(h, wire);
}

void hash_violations(Fnv64& h, const std::vector<InvariantViolation>& v) {
  h.u64(v.size());
  for (const InvariantViolation& x : v) {
    for (char c : x.invariant) h.u64(static_cast<unsigned char>(c));
    h.i64(x.at);
  }
}

FaultPlan small_plan() {
  FaultPlan plan;
  FaultAction drop;
  drop.kind = FaultKind::kDrop;
  drop.at = microseconds(100);
  drop.duration = microseconds(300);
  drop.rate = 0.02;
  plan.actions.push_back(drop);
  FaultAction flap;
  flap.kind = FaultKind::kLinkFlap;
  flap.at = microseconds(250);
  flap.duration = microseconds(150);
  flap.sw = 0;
  flap.port = 1;
  flap.drop_in_flight = true;
  plan.actions.push_back(flap);
  return plan;
}

// The pinned inputs: each a preset with a few fields set.
WorldSpec websearch_world(bool incast, bool faults) {
  WorldSpec s = experiment_world(Experiment::kWebSearch);
  s.clos.spines = 2;
  s.clos.leaves = 2;
  s.clos.hosts_per_leaf = 4;
  s.poisson_flows = 40;
  s.load = 0.4;
  s.seed = 5;
  s.max_time = milliseconds(100);
  if (incast) {
    s.with_incast = true;
    s.incast.fan_in = 4;
    s.incast.bursts = 2;
    s.incast.bytes_per_sender = 32 * 1024;
    s.incast.load = 0.1;
  }
  if (faults) s.faults = small_plan();
  return s;
}

WorldSpec long_flow_world(SchemeKind k, double loss, bool faults) {
  WorldSpec s = experiment_world(Experiment::kLongFlow);
  s.scheme = k;
  s.loss_rate = loss;
  s.flows[0].bytes = 2ull * 1000 * 1000;
  s.max_time = milliseconds(20);
  s.seed = 3;
  if (faults) s.faults = small_plan();
  return s;
}

WorldSpec unequal_world(SchemeKind k, double ratio, std::uint16_t sport_base) {
  WorldSpec s = experiment_world(Experiment::kUnequalPaths);
  s.scheme = k;
  s.testbed.cross_links = unequal_cross_links(ratio);
  s.sport_base = sport_base;
  for (WorldFlow& f : s.flows) f.bytes = 3ull * 1000 * 1000;
  return s;
}

WorldSpec fault_drill_world(bool oracle) {
  WorldSpec s = experiment_world(Experiment::kFaultDrill);
  s.flows[0].bytes = 2ull * 1000 * 1000;
  s.max_time = milliseconds(20);
  s.faults = small_plan();
  s.oracle = oracle;
  return s;
}

WorldSpec wan_world(SchemeKind k, double loss, bool oracle) {
  WorldSpec s = experiment_world(Experiment::kWanFlow);
  s.scheme = k;
  s.wan.regions = 2;
  s.wan.hosts_per_region = 2;
  s.wan.wan_delay = milliseconds(2);
  s.wan.wan_loss_rate = loss;
  s.flows[0].bytes = 1000 * 1000;
  s.max_time = seconds(2);
  s.seed = 9;
  s.oracle = oracle;
  return s;
}

WorldSpec collective_world(CollectiveKind kind, bool clos) {
  WorldSpec s = experiment_world(Experiment::kCollective);
  s.collective = kind;
  s.groups = 2;
  s.members = 4;
  s.collective_bytes = 2ull * 1024 * 1024;
  s.topo = clos ? TopoKind::kClos : TopoKind::kTestbed;
  s.clos.spines = 2;
  s.clos.leaves = 2;
  s.clos.hosts_per_leaf = 4;
  s.max_time = milliseconds(200);
  return s;
}

// The readouts, hashed.

std::uint64_t websearch_hash(SimWorld& w) {
  WebSearchResult r = read_websearch(w);
  Fnv64 h;
  hash_fct(h, r.background);
  hash_fct(h, r.incast_flows);
  h.u64(r.timeouts_background);
  h.u64(r.timeouts_incast);
  h.u64(r.retrans.size());
  for (const RetransSample& s : r.retrans) {
    h.u64(s.flow_bytes);
    h.f64(s.retrans_ratio);
    h.u64(s.background ? 1 : 0);
  }
  h.u64(r.timeouts_per_flow_bg.size());
  for (std::uint64_t t : r.timeouts_per_flow_bg) h.u64(t);
  h.u64(r.timeouts_per_flow_incast.size());
  for (std::uint64_t t : r.timeouts_per_flow_incast) h.u64(t);
  hash_pod(h, r.sw);
  h.u64(r.flows_total);
  h.u64(r.flows_completed);
  h.f64(r.ho_loss_ratio);
  hash_faults(h, r.fault_episodes, r.wire);
  return h.value();
}

// The one-flow pins keep the field sets they were recorded with: a WAN pin
// skips the switch counters and fault tallies (no pinned WAN input has a
// plan), and a testbed pin skips the violations (no pinned testbed input
// arms the oracle).
std::uint64_t flow_hash(SimWorld& w) {
  const TopoKind topo = w.spec().topo;
  const FlowResult r = read_flow(w);
  Fnv64 h;
  h.f64(r.goodput_gbps);
  h.u64(r.completed ? 1 : 0);
  h.i64(r.elapsed);
  hash_pod(h, r.sender);
  hash_pod(h, r.receiver);
  if (topo == TopoKind::kWan) {
    h.u64(r.wire_dropped);
  } else {
    hash_pod(h, r.sw);
    hash_faults(h, r.fault_episodes, r.wire);
  }
  if (topo != TopoKind::kTestbed) hash_violations(h, r.violations);
  return h.value();
}

std::uint64_t unequal_hash(SimWorld& w) {
  const UnequalPathsResult r = read_unequal_paths(w);
  Fnv64 h;
  h.f64(r.avg_goodput_gbps);
  h.f64(r.flow_goodputs[0]);
  h.f64(r.flow_goodputs[1]);
  return h.value();
}

std::uint64_t collective_hash(SimWorld& w) {
  const CollectiveResult r = read_collectives(w);
  Fnv64 h;
  hash_doubles(h, r.jct_ms);
  hash_doubles(h, r.flow_fct_ms);
  h.f64(r.ideal_jct_ms);
  h.u64(r.all_done ? 1 : 0);
  return h.value();
}

struct Pin {
  const char* name;
  WorldSpec spec;
  std::uint64_t (*hash)(SimWorld&);
  std::uint64_t want;
};

// Built on first use, after every other static is initialized.
const std::vector<Pin>& pins() {
  static const std::vector<Pin> kPins = {
      {"websearch", websearch_world(false, false), websearch_hash, 0x4e4fe03cf495e878ull},
      {"websearch_incast_faults", websearch_world(true, true), websearch_hash,
       0x243367097bff4745ull},
      {"longflow", long_flow_world(SchemeKind::kDcp, 0.0, false), flow_hash,
       0xda76b83371f567f2ull},
      {"longflow_loss_faults", long_flow_world(SchemeKind::kIrn, 0.01, true), flow_hash,
       0x39f84d049f609adfull},
      {"unequal_paths", unequal_world(SchemeKind::kDcp, 4.0, 10000), unequal_hash,
       0x457d3d161b80038bull},
      {"unequal_paths_irn", unequal_world(SchemeKind::kIrn, 1.0, 10007), unequal_hash,
       0xdc8b32295547c863ull},
      {"fault_drill", fault_drill_world(false), flow_hash, 0x16700a505b9d91cbull},
      {"fault_drill_oracle", fault_drill_world(true), flow_hash, 0x16700a505b9d91cbull},
      {"wanflow", wan_world(SchemeKind::kDcp, 0.0, false), flow_hash, 0x933f6f74ff761468ull},
      {"wanflow_lossy_oracle", wan_world(SchemeKind::kFec, 0.02, true), flow_hash,
       0x693a7771b3d38330ull},
      {"allreduce_clos", collective_world(CollectiveKind::kAllReduce, true), collective_hash,
       0x48e54bdbc2cbe9c8ull},
      {"alltoall_clos", collective_world(CollectiveKind::kAllToAll, true), collective_hash,
       0x431c6c98f4297abaull},
      {"allreduce_testbed", collective_world(CollectiveKind::kAllReduce, false), collective_hash,
       0xef2f53cd98192da8ull},
  };
  return kPins;
}

std::uint64_t run_pin(const Pin& pin, int shards) {
  WorldSpec s = pin.spec;
  s.shards = shards;
  SimWorld w(s);
  EXPECT_EQ(w.shard_count(), shards) << pin.name;
  return pin.hash(w);
}

TEST(RunnerPins, EveryResultFieldMatchesItsPin) {
  for (const Pin& pin : pins()) {
    const std::uint64_t got = run_pin(pin, 1);
    EXPECT_EQ(got, pin.want) << pin.name << ": readout moved, now 0x" << std::hex << got << "ull";
  }
}

TEST(RunnerPins, TwoShardRunsHitTheSamePins) {
  // Every pinned world that can shard (no plan with an effect, no
  // collective) reads the same on two shards.
  int sharded = 0;
  for (const Pin& pin : pins()) {
    if (pin.spec.faults.has_effect() || pin.spec.groups > 0) continue;
    ++sharded;
    const std::uint64_t got = run_pin(pin, 2);
    EXPECT_EQ(got, pin.want) << pin.name << " on 2 shards: now 0x" << std::hex << got << "ull";
  }
  EXPECT_EQ(sharded, 6);  // websearch, longflow, two unequal-paths and two WAN inputs
}

}  // namespace
}  // namespace dcp
