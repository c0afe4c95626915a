// Runner pins: every field of each harness runner's result, hashed, for a
// small fixed input per runner and per branch a runner takes (incast and a
// fault plan under websearch, loss plus a plan on the long flow, the
// oracle-armed drill, a lossy WAN, each collective on the Clos and the
// testbed).  The stats PODs, doubles by bit pattern, the FCT and JCT
// vectors, fault episodes and wire counters all feed the hash; CorePerf
// does not, because it holds wall time.
//
// A pin moves only when a runner's observable output moves.  To record
// the value for a new input, add it with `want` 0, build this test against
// the parent commit's libraries and run it there: each failure prints the
// value to paste.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
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

template <typename R>
void hash_single_flow(Fnv64& h, const R& r) {
  h.f64(r.goodput_gbps);
  h.u64(r.completed ? 1 : 0);
  h.i64(r.elapsed);
  hash_pod(h, r.sender);
  hash_pod(h, r.receiver);
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

std::uint64_t websearch_pin(bool incast, bool faults) {
  WebSearchParams p;
  p.clos.spines = 2;
  p.clos.leaves = 2;
  p.clos.hosts_per_leaf = 4;
  p.num_flows = 40;
  p.load = 0.4;
  p.seed = 5;
  p.max_time = milliseconds(100);
  if (incast) {
    p.with_incast = true;
    p.incast.fan_in = 4;
    p.incast.bursts = 2;
    p.incast.bytes_per_sender = 32 * 1024;
    p.incast.load = 0.1;
  }
  if (faults) p.faults = small_plan();
  WebSearchResult r = run_websearch(p);
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

std::uint64_t long_flow_pin(SchemeKind k, double loss, bool faults) {
  LongFlowParams p;
  p.scheme = k;
  p.loss_rate = loss;
  p.flow_bytes = 2ull * 1000 * 1000;
  p.max_time = milliseconds(20);
  p.seed = 3;
  if (faults) p.faults = small_plan();
  const LongFlowResult r = run_long_flow(p);
  Fnv64 h;
  hash_single_flow(h, r);
  hash_pod(h, r.sw);
  hash_faults(h, r.fault_episodes, r.wire);
  return h.value();
}

std::uint64_t unequal_pin(SchemeKind k, double ratio, std::uint16_t sport_base) {
  const UnequalPathsResult r = run_unequal_paths(k, ratio, 3ull * 1000 * 1000, {}, sport_base);
  Fnv64 h;
  h.f64(r.avg_goodput_gbps);
  h.f64(r.flow_goodputs[0]);
  h.f64(r.flow_goodputs[1]);
  return h.value();
}

std::uint64_t fault_drill_pin(bool oracle) {
  FaultDrillParams p;
  p.scheme = SchemeKind::kDcp;
  p.flow_bytes = 2ull * 1000 * 1000;
  p.max_time = milliseconds(20);
  p.faults = small_plan();
  p.oracle = oracle;
  const FaultDrillResult r = run_fault_drill(p);
  Fnv64 h;
  hash_single_flow(h, r);
  hash_pod(h, r.sw);
  hash_faults(h, r.fault_episodes, r.wire);
  hash_violations(h, r.violations);
  return h.value();
}

std::uint64_t wan_pin(SchemeKind k, double loss, bool oracle) {
  WanFlowParams p;
  p.scheme = k;
  p.wan.regions = 2;
  p.wan.hosts_per_region = 2;
  p.wan.wan_delay = milliseconds(2);
  p.wan.wan_loss_rate = loss;
  p.flow_bytes = 1000 * 1000;
  p.max_time = seconds(2);
  p.seed = 9;
  p.oracle = oracle;
  const WanFlowResult r = run_wan_flow(p);
  Fnv64 h;
  hash_single_flow(h, r);
  h.u64(r.wire_dropped);
  hash_violations(h, r.violations);
  return h.value();
}

std::uint64_t collective_pin(CollectiveKind kind, bool use_clos) {
  CollectiveExpParams p;
  p.kind = kind;
  p.groups = 2;
  p.members_per_group = 4;
  p.total_bytes = 2ull * 1024 * 1024;
  p.use_clos = use_clos;
  p.clos.spines = 2;
  p.clos.leaves = 2;
  p.clos.hosts_per_leaf = 4;
  p.max_time = milliseconds(200);
  const CollectiveResult r = run_collectives(p);
  Fnv64 h;
  hash_doubles(h, r.jct_ms);
  hash_doubles(h, r.flow_fct_ms);
  h.f64(r.ideal_jct_ms);
  h.u64(r.all_done ? 1 : 0);
  return h.value();
}

struct Pin {
  const char* name;
  std::function<std::uint64_t()> run;
  std::uint64_t want;
};

const Pin kPins[] = {
    {"websearch", [] { return websearch_pin(false, false); },
     0x4e4fe03cf495e878ull},
    {"websearch_incast_faults", [] { return websearch_pin(true, true); },
     0x243367097bff4745ull},
    {"longflow", [] { return long_flow_pin(SchemeKind::kDcp, 0.0, false); },
     0xda76b83371f567f2ull},
    {"longflow_loss_faults", [] { return long_flow_pin(SchemeKind::kIrn, 0.01, true); },
     0x39f84d049f609adfull},
    {"unequal_paths", [] { return unequal_pin(SchemeKind::kDcp, 4.0, 10000); },
     0x457d3d161b80038bull},
    {"unequal_paths_irn", [] { return unequal_pin(SchemeKind::kIrn, 1.0, 10007); },
     0xdc8b32295547c863ull},
    {"fault_drill", [] { return fault_drill_pin(false); },
     0x16700a505b9d91cbull},
    {"fault_drill_oracle", [] { return fault_drill_pin(true); },
     0x16700a505b9d91cbull},
    {"wanflow", [] { return wan_pin(SchemeKind::kDcp, 0.0, false); },
     0x933f6f74ff761468ull},
    {"wanflow_lossy_oracle", [] { return wan_pin(SchemeKind::kFec, 0.02, true); },
     0x693a7771b3d38330ull},
    {"allreduce_clos", [] { return collective_pin(CollectiveKind::kAllReduce, true); },
     0x48e54bdbc2cbe9c8ull},
    {"alltoall_clos", [] { return collective_pin(CollectiveKind::kAllToAll, true); },
     0x431c6c98f4297abaull},
    {"allreduce_testbed", [] { return collective_pin(CollectiveKind::kAllReduce, false); },
     0xef2f53cd98192da8ull},
};

TEST(RunnerPins, EveryResultFieldMatchesItsPin) {
  for (const Pin& pin : kPins) {
    const std::uint64_t got = pin.run();
    EXPECT_EQ(got, pin.want) << pin.name << ": runner output moved, now 0x" << std::hex << got
                             << "ull";
  }
}

}  // namespace
}  // namespace dcp
