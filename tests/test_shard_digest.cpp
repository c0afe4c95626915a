// Digest equality for space-parallel sharding: DCP_SHARDS=N must be BIT
// FOR BIT identical to DCP_SHARDS=1 (which is exactly the serial code
// path) across the fig-style experiment shapes — same goodputs, same
// FCTs, same retransmit counts, and the same events_processed, since the
// windowed execution merges to the very same event interleaving.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace dcp {
namespace {

/// Scoped DCP_SHARDS override: SimWorld reads the variable when it builds
/// its ShardGroup, so set it before building the world.
class ScopedShardsEnv {
 public:
  explicit ScopedShardsEnv(int shards) {
    const char* prev = std::getenv("DCP_SHARDS");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    setenv("DCP_SHARDS", std::to_string(shards).c_str(), 1);
  }
  ~ScopedShardsEnv() {
    if (had_prev_) {
      setenv("DCP_SHARDS", prev_.c_str(), 1);
    } else {
      unsetenv("DCP_SHARDS");
    }
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

struct TrialDigest {
  double goodput = 0.0;
  double goodput2 = 0.0;  // a second flow's, where the trial has one
  Time elapsed = 0;
  bool completed = false;
  std::uint64_t retransmitted = 0;
  std::uint64_t events = 0;

  bool operator==(const TrialDigest&) const = default;
};

/// Fig 10/17 shape: scheme x injected-loss matrix of long testbed flows
/// (the testbed partitions into two shards, one per switch side).
std::vector<TrialDigest> long_flow_matrix(int shards) {
  ScopedShardsEnv env(shards);
  const SchemeKind kinds[] = {SchemeKind::kDcp, SchemeKind::kRackTlp, SchemeKind::kIrn,
                              SchemeKind::kTimeout};
  const double rates[] = {0.0, 0.005, 0.02};
  std::vector<TrialDigest> out;
  for (double rate : rates) {
    for (SchemeKind k : kinds) {
      WorldSpec p = experiment_world(Experiment::kLongFlow);
      p.scheme = k;
      p.loss_rate = rate;
      p.flows[0].bytes = 2ull * 1000 * 1000;
      p.max_time = milliseconds(20);
      SimWorld w(p);
      const FlowResult r = read_flow(w);
      TrialDigest d;
      d.goodput = r.goodput_gbps;
      d.elapsed = r.elapsed;
      d.completed = r.completed;
      d.retransmitted = r.sender.retransmitted_packets;
      d.events = r.core.events_processed;
      out.push_back(d);
    }
  }
  return out;
}

TEST(ShardDigest, LongFlowMatrixShardedBitIdenticalToSerial) {
  const std::vector<TrialDigest> serial = long_flow_matrix(1);
  const std::vector<TrialDigest> sharded = long_flow_matrix(2);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], sharded[i]) << "trial " << i;
  }
  // The matrix exercised recovery across the cut, not just clean delivery.
  bool any_retx = false;
  for (const TrialDigest& d : sharded) any_retx = any_retx || d.retransmitted > 0;
  EXPECT_TRUE(any_retx);
}

/// Fig 1 shape: WebSearch background load on a 2x2x4 CLOS (one shard per
/// leaf group, spines split between them).
std::vector<TrialDigest> websearch_matrix(int shards) {
  ScopedShardsEnv env(shards);
  const std::uint64_t seeds[] = {11, 23};
  const SchemeKind kinds[] = {SchemeKind::kDcp, SchemeKind::kIrn};
  std::vector<TrialDigest> out;
  for (std::size_t i = 0; i < 4; ++i) {
    WorldSpec p = experiment_world(Experiment::kWebSearch);
    p.scheme = kinds[i % 2];
    p.seed = seeds[i / 2];
    p.clos.spines = 2;
    p.clos.leaves = 2;
    p.clos.hosts_per_leaf = 4;
    p.load = 0.4;
    p.poisson_flows = 100;
    SimWorld w(p);
    WebSearchResult r = read_websearch(w);
    TrialDigest d;
    d.goodput = r.background.overall().percentile(99.0);
    d.completed = r.flows_completed == r.flows_total;
    d.retransmitted = r.timeouts_background;
    d.events = r.core.events_processed;
    out.push_back(d);
  }
  return out;
}

TEST(ShardDigest, WebsearchShardedBitIdenticalToSerial) {
  const std::vector<TrialDigest> serial = websearch_matrix(1);
  const std::vector<TrialDigest> sharded = websearch_matrix(2);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], sharded[i]) << "trial " << i;
  }
}

// Unequal paths (Fig 11) and the fault drill now build through the shard
// group too: the testbed splits at its cross links, the drill's Clos by
// leaf group.  Each readout must not change with the shard count, and the
// world must really run on two shards.
TrialDigest read_digest(const WorldSpec& spec, int shards, bool drill) {
  ScopedShardsEnv env(shards);
  SimWorld w(spec);
  EXPECT_EQ(w.shard_count(), shards);
  TrialDigest d;
  if (drill) {
    const FlowResult r = read_flow(w);
    d.goodput = r.goodput_gbps;
    d.elapsed = r.elapsed;
    d.completed = r.completed;
    d.retransmitted = r.sender.retransmitted_packets;
    d.events = r.core.events_processed;
    EXPECT_TRUE(r.violations.empty());
  } else {
    const UnequalPathsResult r = read_unequal_paths(w);
    d.goodput = r.flow_goodputs[0];
    d.goodput2 = r.flow_goodputs[1];
    d.events = r.core.events_processed;
  }
  return d;
}

TEST(ShardDigest, UnequalPathsShardedBitIdenticalToSerial) {
  for (double ratio : {1.0, 4.0}) {
    WorldSpec spec = experiment_world(Experiment::kUnequalPaths);
    spec.testbed.cross_links = unequal_cross_links(ratio);
    spec.sport_base = 10003;
    for (WorldFlow& f : spec.flows) f.bytes = 2ull * 1000 * 1000;
    EXPECT_EQ(read_digest(spec, 1, false), read_digest(spec, 2, false)) << "ratio " << ratio;
  }
}

TEST(ShardDigest, FaultDrillEffectFreePlanShardedBitIdenticalToSerial) {
  // Every action is a no-op (zero rate, zero duration), so the plan has no
  // effect and does not force the serial path.
  WorldSpec p = experiment_world(Experiment::kFaultDrill);
  p.flows[0].bytes = 2ull * 1000 * 1000;
  p.max_time = milliseconds(20);
  p.oracle = true;
  FaultAction drop;
  drop.kind = FaultKind::kDrop;
  drop.at = microseconds(100);
  drop.rate = 0.0;
  FaultAction flap;
  flap.kind = FaultKind::kLinkFlap;
  flap.at = microseconds(200);
  p.faults.actions = {drop, flap};
  ASSERT_FALSE(p.faults.has_effect());
  EXPECT_EQ(read_digest(p, 1, true), read_digest(p, 2, true));
}

TEST(ShardDigest, OverAskedShardCountClampsToTopology) {
  // DCP_SHARDS far beyond the partition count must clamp, not crash or
  // diverge: the testbed has two natural shards.
  const std::vector<TrialDigest> serial = long_flow_matrix(1);
  const std::vector<TrialDigest> sharded = long_flow_matrix(16);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], sharded[i]) << "trial " << i;
  }
}

TEST(ShardDigest, FaultPlansForceTheSerialPath) {
  // A run with live fault injection ignores DCP_SHARDS (the injector has
  // no shard-ordering story) — digests must match serial exactly.
  auto run = [](int shards) {
    ScopedShardsEnv env(shards);
    WorldSpec p = experiment_world(Experiment::kLongFlow);
    p.scheme = SchemeKind::kDcp;
    p.flows[0].bytes = 1ull * 1000 * 1000;
    p.max_time = milliseconds(20);
    FaultAction a;
    a.kind = FaultKind::kLinkFlap;
    a.at = microseconds(200);
    a.duration = microseconds(100);
    a.sw = 0;
    a.port = 0;
    p.faults.actions.push_back(a);
    SimWorld w(p);
    const FlowResult r = read_flow(w);
    TrialDigest d;
    d.goodput = r.goodput_gbps;
    d.elapsed = r.elapsed;
    d.completed = r.completed;
    d.retransmitted = r.sender.retransmitted_packets;
    d.events = r.core.events_processed;
    return d;
  };
  EXPECT_EQ(run(1), run(2));
}

TEST(SimWorldDeathTest, ExplicitShardsOnAOneShardWorldFailClosed) {
  // An explicit shard count used to bypass both rules and run another
  // world: fuzz seed 2's plan on two shards ended at another digest after
  // 4,266 events instead of 4,264, and the collective pin's input at
  // another digest after the same event count.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  WorldSpec faulted = experiment_world(Experiment::kFaultDrill);
  FaultAction drop;
  drop.kind = FaultKind::kDrop;
  drop.rate = 0.01;
  faulted.faults.actions = {drop};
  ASSERT_TRUE(faulted.faults.has_effect());
  faulted.shards = 2;
  EXPECT_DEATH(SimWorld{faulted}, "shards = 2 refused: a fault plan with an effect runs on one");
  WorldSpec collective = experiment_world(Experiment::kCollective);
  collective.groups = 2;
  collective.clos.spines = collective.clos.leaves = 2;
  collective.shards = 2;
  EXPECT_DEATH(SimWorld{collective}, "shards = 2 refused: a collective world runs on one");
  // One shard is what both run anyway.
  faulted.shards = collective.shards = 1;
  EXPECT_EQ(SimWorld(faulted).shard_count(), 1);
  EXPECT_EQ(SimWorld(collective).shard_count(), 1);
}

}  // namespace
}  // namespace dcp
