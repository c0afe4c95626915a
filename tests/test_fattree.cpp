// Tests for the three-tier fat-tree topology.

#include <gtest/gtest.h>

#include "harness/scheme.h"
#include "topo/fattree.h"
#include "workload/flowgen.h"

namespace dcp {
namespace {

struct Fixture {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
};

TEST(FatTree, DimensionsForK4) {
  Fixture f;
  FatTreeParams p;
  p.k = 4;
  p.sw = make_scheme(SchemeKind::kDcp).sw;
  FatTreeTopology t = build_fattree(f.net, p);
  EXPECT_EQ(t.hosts.size(), 16u);
  EXPECT_EQ(t.core.size(), 4u);
  EXPECT_EQ(t.edge.size(), 4u);
  EXPECT_EQ(t.agg.size(), 4u);
  EXPECT_EQ(t.edge[0].size(), 2u);
  // Edge switch: 2 host ports + 2 agg uplinks.
  EXPECT_EQ(t.edge[0][0]->num_ports(), 4u);
  // Core switch: one port per pod.
  EXPECT_EQ(t.core[0]->num_ports(), 4u);
}

TEST(FatTree, RoutesOfferFullMultipath) {
  Fixture f;
  FatTreeParams p;
  p.k = 4;
  p.sw = make_scheme(SchemeKind::kDcp).sw;
  FatTreeTopology t = build_fattree(f.net, p);
  // Cross-pod destination: edge offers k/2 uplinks, agg offers k/2 core
  // uplinks -> 4 distinct paths for k=4.
  const NodeId far = t.hosts[15]->id();
  EXPECT_EQ(t.edge[0][0]->routes().candidates(far).size(), 2u);
  EXPECT_EQ(t.agg[0][0]->routes().candidates(far).size(), 2u);
  // Same-pod, different edge: up one level only.
  const NodeId near = t.hosts[2]->id();  // pod 0, edge 1
  EXPECT_EQ(t.edge[0][0]->routes().candidates(near).size(), 2u);
  EXPECT_EQ(t.agg[0][0]->routes().candidates(near).size(), 1u);  // down
}

TEST(FatTree, UpRoutesAreOneDefaultGroupPerSwitch) {
  Fixture f;
  FatTreeParams p;
  p.k = 4;
  p.sw = make_scheme(SchemeKind::kDcp).sw;
  FatTreeTopology t = build_fattree(f.net, p);
  const int half = p.k / 2;
  // The switch each entry of a candidate list leads to, in list order.
  auto peers = [](Switch* sw, RouteView ports) {
    std::vector<const Node*> out;
    for (std::uint32_t port : ports) out.push_back(sw->port(port).channel().peer());
    return out;
  };
  const NodeId far = t.hosts[15]->id();  // pod 3
  for (int pod = 0; pod < 2; ++pod) {
    for (int i = 0; i < half; ++i) {
      // Edge: the uplinks to the pod's aggs, in install (agg index) order,
      // shared by every destination off this edge.
      Switch* e = t.edge[static_cast<std::size_t>(pod)][static_cast<std::size_t>(i)];
      std::vector<const Node*> aggs;
      for (Switch* a : t.agg[static_cast<std::size_t>(pod)]) aggs.push_back(a);
      EXPECT_EQ(peers(e, e->routes().default_routes()), aggs);
      EXPECT_EQ(e->routes().candidates(far).begin(), e->routes().default_routes().data());

      // Aggregation: the uplinks to cores [i*half, (i+1)*half), in order.
      Switch* a = t.agg[static_cast<std::size_t>(pod)][static_cast<std::size_t>(i)];
      std::vector<const Node*> cores;
      for (int j = 0; j < half; ++j) cores.push_back(t.core[static_cast<std::size_t>(i * half + j)]);
      EXPECT_EQ(peers(a, a->routes().default_routes()), cores);
      EXPECT_EQ(a->routes().candidates(far).begin(), a->routes().default_routes().data());
    }
  }
  // Cores have no way up: every host has exactly one down-route.
  for (Switch* c : t.core) {
    EXPECT_TRUE(c->routes().default_routes().empty());
    for (Host* h : t.hosts) EXPECT_EQ(c->routes().candidates(h->id()).size(), 1u);
  }
}

TEST(FatTree, PathInfoTiers) {
  Fixture f;
  FatTreeParams p;
  p.k = 4;
  p.sw = make_scheme(SchemeKind::kDcp).sw;
  FatTreeTopology t = build_fattree(f.net, p);
  EXPECT_EQ(f.net.path_info(t.hosts[0]->id(), t.hosts[1]->id()).hops, 2);   // same edge
  EXPECT_EQ(f.net.path_info(t.hosts[0]->id(), t.hosts[2]->id()).hops, 4);   // same pod
  EXPECT_EQ(f.net.path_info(t.hosts[0]->id(), t.hosts[15]->id()).hops, 6);  // cross pod
}

TEST(FatTree, DcpTrafficFlowsAcrossPods) {
  Fixture f;
  FatTreeParams p;
  p.k = 4;
  p.sw = make_scheme(SchemeKind::kDcp).sw;
  FatTreeTopology t = build_fattree(f.net, p);
  apply_scheme(f.net, make_scheme(SchemeKind::kDcp));

  FlowGenParams fg;
  fg.num_flows = 40;
  fg.load = 0.3;
  generate_poisson_flows(f.net, t.hosts, SizeDist::websearch(), fg);
  f.net.run_until_done(seconds(10));
  EXPECT_TRUE(f.net.all_flows_done());
  EXPECT_EQ(f.net.total_switch_stats().no_route, 0u);
}

TEST(FatTree, SurvivesCoreFailure) {
  Fixture f;
  FatTreeParams p;
  p.k = 4;
  p.sw = make_scheme(SchemeKind::kDcp).sw;
  FatTreeTopology t = build_fattree(f.net, p);
  apply_scheme(f.net, make_scheme(SchemeKind::kDcp));

  FlowSpec spec;
  spec.src = t.hosts[0]->id();
  spec.dst = t.hosts[15]->id();
  spec.bytes = 4'000'000;
  spec.msg_bytes = 512 * 1024;
  const FlowId id = f.net.start_flow(spec);
  f.sim.schedule(microseconds(50), [&] {
    // Kill core 0 and withdraw the agg uplinks toward it.
    for (std::uint32_t port = 0; port < t.core[0]->num_ports(); ++port) {
      t.core[0]->set_link_up(port, false);
    }
    for (int pod = 0; pod < 4; ++pod) {
      // agg a=0's first core uplink leads to core 0 (ports: 2 edge links
      // then 2 core links).
      t.agg[static_cast<std::size_t>(pod)][0]->set_link_up(2, false);
    }
  });
  f.net.run_until_done(seconds(5));
  ASSERT_TRUE(f.net.record(id).complete());
  EXPECT_EQ(f.net.record(id).receiver.bytes_received, 4'000'000u);
}

TEST(SizeDistExtra, DataminingShape) {
  const SizeDist dm = SizeDist::datamining();
  EXPECT_NEAR(dm.cdf_at(10'000), 0.80, 0.01);
  EXPECT_NEAR(dm.cdf_at(1'000'000), 0.90, 0.01);
  // Heavy tail: the mean dwarfs the median.
  Rng rng(3);
  std::uint64_t median_ish = dm.sample(rng);
  (void)median_ish;
  EXPECT_GT(dm.mean_bytes(), 5'000'000.0);
}

}  // namespace
}  // namespace dcp
