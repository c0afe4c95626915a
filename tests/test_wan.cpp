// WAN topology: mesh wiring and path metadata, cross-region flows over
// clean and lossy long-haul links, the huge-BDP overflow probe, and shard
// determinism — a WAN run (lossy or not) must be bit-identical across
// DCP_SHARDS because each wire's loss draws come from its own substream.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "topo/wan.h"

namespace dcp {
namespace {

struct TopoFixture {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
};

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

TEST(Wan, MeshDimensionsAndRoutes) {
  TopoFixture f;
  WanParams p;
  p.regions = 4;
  p.hosts_per_region = 3;
  WanTopology t = build_wan(f.net, p);
  EXPECT_EQ(t.hosts.size(), 12u);
  EXPECT_EQ(t.region_sw.size(), 4u);
  EXPECT_EQ(t.region_of_host(0), 0);
  EXPECT_EQ(t.region_of_host(5), 1);
  EXPECT_EQ(t.region_of_host(11), 3);
  // Clean wires: no fault state is allocated at all.
  EXPECT_TRUE(t.wire_faults.empty());
  EXPECT_EQ(t.wire_dropped(), 0u);

  // Each region switch reaches a remote host through exactly one direct
  // mesh wire (single-path WAN: no cross-region ECMP spraying).
  const NodeId remote = t.hosts[11]->id();
  EXPECT_EQ(t.region_sw[0]->routes().candidates(remote).size(), 1u);
  EXPECT_EQ(t.region_sw[0]->routes().candidates(t.hosts[0]->id()).size(), 1u);
}

TEST(Wan, PathInfoReflectsTheLongHaul) {
  TopoFixture f;
  WanParams p;
  p.regions = 2;
  p.hosts_per_region = 2;
  p.wan_delay = milliseconds(25);
  WanTopology t = build_wan(f.net, p);
  const auto same = f.net.path_info(t.hosts[0]->id(), t.hosts[1]->id());
  const auto cross = f.net.path_info(t.hosts[0]->id(), t.hosts[2]->id());
  EXPECT_EQ(same.hops, 2);
  EXPECT_EQ(cross.hops, 3);
  EXPECT_GE(cross.one_way_delay, milliseconds(25));
  EXPECT_LT(same.one_way_delay, microseconds(10));
}

TEST(Wan, LossyWiresAllocatePerDirectionFaults) {
  TopoFixture f;
  WanParams p;
  p.regions = 3;
  p.wan_loss_rate = 0.05;
  WanTopology t = build_wan(f.net, p);
  // 3 region pairs x 2 directions.
  EXPECT_EQ(t.wire_faults.size(), 6u);
  for (const auto& wf : t.wire_faults) {
    EXPECT_EQ(wf->fault.drop_rate, 0.05);
    EXPECT_EQ(wf->fault.rng, &wf->rng);
  }
}

TEST(Wan, CrossRegionFlowCompletesClean) {
  WorldSpec p = experiment_world(Experiment::kWanFlow);
  p.scheme = SchemeKind::kDcp;
  p.wan.wan_delay = milliseconds(5);
  p.wan.hosts_per_region = 2;
  p.flows[0].bytes = 2ull * 1000 * 1000;
  p.max_time = seconds(2);
  p.oracle = true;
  SimWorld w(p);
  const FlowResult r = read_flow(w);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.receiver.bytes_received, p.flows[0].bytes);
  EXPECT_EQ(r.wire_dropped, 0u);
  for (const InvariantViolation& v : r.violations) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
}

TEST(Wan, LossyCrossRegionFlowCompletesAndCountsDrops) {
  WorldSpec p = experiment_world(Experiment::kWanFlow);
  p.scheme = SchemeKind::kFec;
  p.wan.wan_delay = milliseconds(5);
  p.wan.hosts_per_region = 2;
  p.wan.wan_loss_rate = 0.05;
  p.flows[0].bytes = 2ull * 1000 * 1000;
  p.max_time = seconds(5);
  p.oracle = true;
  SimWorld w(p);
  const FlowResult r = read_flow(w);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.receiver.bytes_received, p.flows[0].bytes);
  EXPECT_GT(r.wire_dropped, 0u);
  EXPECT_GT(r.receiver.decode_recovered_packets, 0u);
  for (const InvariantViolation& v : r.violations) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
}

TEST(Wan, HugeBdpProbeNoOverflow) {
  // The unit landmine this topology exists to flush out: 400 ms one-way at
  // 100 Gbps is a ~5 GB BDP and an ~800 ms RTT — timer arithmetic, window
  // accounting and buffer sizing all have to survive in 64-bit.  The flow
  // is small; what matters is that timers fire sanely and the run
  // completes with exact byte accounting instead of wedging or wrapping.
  WorldSpec p = experiment_world(Experiment::kWanFlow);
  p.scheme = SchemeKind::kFec;
  p.wan.regions = 2;
  p.wan.hosts_per_region = 2;
  p.wan.wan_delay = milliseconds(400);
  p.flows[0].bytes = 1ull * 1000 * 1000;
  p.max_time = seconds(10);
  p.oracle = true;
  SimWorld w(p);
  const FlowResult r = read_flow(w);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.receiver.bytes_received, p.flows[0].bytes);
  EXPECT_GT(r.elapsed, milliseconds(800));  // at least one RTT, sane sign
  EXPECT_LT(r.elapsed, seconds(10));
  for (const InvariantViolation& v : r.violations) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
}

// ---------------------------------------------------------------------------
// Shard determinism
// ---------------------------------------------------------------------------

struct TrialDigest {
  double goodput = 0.0;
  Time elapsed = 0;
  bool completed = false;
  std::uint64_t retransmitted = 0;
  std::uint64_t decoded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t events = 0;

  bool operator==(const TrialDigest&) const = default;
};

std::vector<TrialDigest> wan_matrix(int shards) {
  ScopedShardsEnv env(shards);
  const SchemeKind kinds[] = {SchemeKind::kFec, SchemeKind::kDcp};
  const double losses[] = {0.0, 0.02};
  std::vector<TrialDigest> out;
  for (double loss : losses) {
    for (SchemeKind k : kinds) {
      WorldSpec p = experiment_world(Experiment::kWanFlow);
      p.scheme = k;
      p.wan.wan_delay = milliseconds(2);
      p.wan.hosts_per_region = 2;
      p.wan.wan_loss_rate = loss;
      p.flows[0].bytes = 1ull * 1000 * 1000;
      p.max_time = seconds(2);
      SimWorld w(p);
      const FlowResult r = read_flow(w);
      TrialDigest d;
      d.goodput = r.goodput_gbps;
      d.elapsed = r.elapsed;
      d.completed = r.completed;
      d.retransmitted = r.sender.retransmitted_packets;
      d.decoded = r.receiver.decode_recovered_packets;
      d.dropped = r.wire_dropped;
      d.events = r.core.events_processed;
      out.push_back(d);
    }
  }
  return out;
}

TEST(WanShardDigest, ShardedBitIdenticalToSerial) {
  // Lossy cells included: per-wire fault substreams are drawn only on the
  // source shard's thread, so even random WAN loss must not diverge.
  const std::vector<TrialDigest> serial = wan_matrix(1);
  const std::vector<TrialDigest> sharded = wan_matrix(2);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], sharded[i]) << "trial " << i;
  }
  bool any_drop = false;
  for (const TrialDigest& d : sharded) any_drop = any_drop || d.dropped > 0;
  EXPECT_TRUE(any_drop);
}

}  // namespace
}  // namespace dcp
