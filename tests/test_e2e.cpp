// End-to-end integration tests: every scheme moves every byte reliably
// across back-to-back, star (with injected loss) and testbed topologies.

#include <gtest/gtest.h>

#include "harness/scheme.h"
#include "topo/clos.h"
#include "topo/dumbbell.h"
#include "topo/testbed.h"

namespace dcp {
namespace {

struct E2eFixture {
  Simulator sim;
  Logger log{LogLevel::kError};
  Network net{sim, log};
};

FlowId one_flow(Network& net, Host* a, Host* b, std::uint64_t bytes,
                std::uint64_t msg_bytes = 1024 * 1024) {
  FlowSpec spec;
  spec.src = a->id();
  spec.dst = b->id();
  spec.bytes = bytes;
  spec.msg_bytes = msg_bytes;
  spec.start_time = 0;
  return net.start_flow(spec);
}

class BackToBackAllSchemes : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(BackToBackAllSchemes, SingleFlowCompletesAndDeliversAllBytes) {
  E2eFixture f;
  SchemeSetup s = make_scheme(GetParam());
  BackToBack t = build_back_to_back(f.net);
  apply_scheme(f.net, s);

  const std::uint64_t kBytes = 2'000'000;
  const FlowId id = one_flow(f.net, t.a, t.b, kBytes);
  f.net.run_until_done(seconds(1));

  const FlowRecord& rec = f.net.record(id);
  ASSERT_TRUE(rec.complete()) << scheme_name(GetParam());
  EXPECT_EQ(rec.receiver.bytes_received, kBytes);
  EXPECT_GE(rec.rx_done, 0);
  EXPECT_GE(rec.tx_done, rec.rx_done);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, BackToBackAllSchemes,
                         ::testing::Values(SchemeKind::kDcp, SchemeKind::kCx5, SchemeKind::kIrn,
                                           SchemeKind::kMpRdma, SchemeKind::kTimeout,
                                           SchemeKind::kRackTlp, SchemeKind::kTcp,
                                           SchemeKind::kPfc),
                         [](const auto& info) {
                           std::string n = scheme_name(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

class LossyStarAllSchemes : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(LossyStarAllSchemes, FlowsSurviveOnePercentLoss) {
  E2eFixture f;
  SchemeSetup s = make_scheme(GetParam());
  s.sw.inject_loss_rate = 0.01;
  Star t = build_star(f.net, 4, s.sw);
  apply_scheme(f.net, s);

  std::vector<FlowId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(one_flow(f.net, t.hosts[static_cast<std::size_t>(i)], t.hosts[3], 500'000));
  }
  f.net.run_until_done(seconds(2));

  for (FlowId id : ids) {
    const FlowRecord& rec = f.net.record(id);
    ASSERT_TRUE(rec.complete()) << scheme_name(GetParam()) << " flow " << id;
    EXPECT_EQ(rec.receiver.bytes_received, 500'000u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossTolerant, LossyStarAllSchemes,
                         ::testing::Values(SchemeKind::kDcp, SchemeKind::kCx5, SchemeKind::kIrn,
                                           SchemeKind::kTimeout, SchemeKind::kRackTlp),
                         [](const auto& info) {
                           std::string n = scheme_name(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(E2eDcp, TrimmingRecoversIncastWithoutTimeouts) {
  E2eFixture f;
  SchemeSetup s = make_scheme(SchemeKind::kDcp);
  s.sw.trim_threshold_bytes = 64 * 1024;  // shallow: force heavy trimming
  Star t = build_star(f.net, 9, s.sw);
  apply_scheme(f.net, s);

  // 8-to-1 incast: enough to exceed the 100 KB trim threshold immediately.
  std::vector<FlowId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(one_flow(f.net, t.hosts[static_cast<std::size_t>(i)], t.hosts[8], 1'000'000));
  }
  f.net.run_until_done(seconds(2));

  std::uint64_t timeouts = 0;
  for (FlowId id : ids) {
    const FlowRecord& rec = f.net.record(id);
    ASSERT_TRUE(rec.complete());
    EXPECT_EQ(rec.receiver.bytes_received, 1'000'000u);
    timeouts += rec.sender.timeouts;
  }
  // Trimming + HO retransmission recover all losses without RTO.
  EXPECT_EQ(timeouts, 0u);
  const auto sw = f.net.total_switch_stats();
  EXPECT_GT(sw.trimmed, 0u);        // congestion actually happened
  EXPECT_EQ(sw.dropped_ho, 0u);     // lossless control plane held
}

TEST(E2eDcp, PfcKeepsGbnLossless) {
  E2eFixture f;
  SchemeSetup s = make_scheme(SchemeKind::kPfc);
  // Small shared buffer so the 4-to-1 incast actually crosses Xoff.
  s.sw.buffer_bytes = 512 * 1024;
  s.sw.pfc = derive_pfc_thresholds(
      s.sw.buffer_bytes, std::vector<std::pair<Bandwidth, Time>>(
                             5, {Bandwidth::gbps(100), microseconds(1)}));
  Star t = build_star(f.net, 5, s.sw);
  apply_scheme(f.net, s);

  std::vector<FlowId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(one_flow(f.net, t.hosts[static_cast<std::size_t>(i)], t.hosts[4], 2'000'000));
  }
  f.net.run_until_done(seconds(2));

  for (FlowId id : ids) {
    ASSERT_TRUE(f.net.record(id).complete());
  }
  const auto sw = f.net.total_switch_stats();
  EXPECT_EQ(sw.dropped_data, 0u);          // PFC = no loss
  EXPECT_EQ(sw.lossless_violations, 0u);
  EXPECT_GT(sw.pauses_sent, 0u);           // and it actually paused
}

// The network keeps one record per started flow, in start order, holding
// the flow's spec and what its receiver got.
TEST(E2eRecords, OneRecordPerFlowInStartOrder) {
  E2eFixture f;
  SchemeSetup s = make_scheme(SchemeKind::kDcp);
  Star t = build_star(f.net, 3, s.sw);
  apply_scheme(f.net, s);

  std::vector<FlowId> ids;
  for (std::size_t i = 0; i < 4; ++i) {
    ids.push_back(one_flow(f.net, t.hosts[i % 2], t.hosts[2], 50'000 + i * 1000));
  }
  f.net.run_until_done(seconds(1));

  ASSERT_EQ(f.net.flows_started(), 4u);
  ASSERT_EQ(f.net.records().size(), 4u);
  EXPECT_TRUE(f.net.all_flows_done());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const FlowRecord& rec = f.net.records()[i];
    EXPECT_EQ(&rec, &f.net.record(ids[i]));
    EXPECT_EQ(rec.spec.src, t.hosts[i % 2]->id());
    EXPECT_EQ(rec.spec.dst, t.hosts[2]->id());
    EXPECT_EQ(rec.spec.bytes, 50'000 + i * 1000);
    EXPECT_EQ(rec.receiver.bytes_received, rec.spec.bytes);
  }
}

TEST(E2eTestbed, CrossSwitchFlowsUseParallelLinks) {
  E2eFixture f;
  SchemeSetup s = make_scheme(SchemeKind::kDcp);
  TestbedParams tb;
  tb.sw = s.sw;
  TestbedTopology topo = build_testbed(f.net, tb);
  apply_scheme(f.net, s);

  std::vector<FlowId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(one_flow(f.net, topo.hosts[static_cast<std::size_t>(i)],
                           topo.hosts[static_cast<std::size_t>(8 + i)], 4'000'000));
  }
  f.net.run_until_done(seconds(2));
  for (FlowId id : ids) ASSERT_TRUE(f.net.record(id).complete());

  // Adaptive routing should spread the 4 flows over several cross links.
  int used_links = 0;
  for (std::uint32_t port = 8; port < topo.sw1->num_ports(); ++port) {
    if (topo.sw1->port(port).stats().tx_packets > 100) ++used_links;
  }
  EXPECT_GE(used_links, 2);
}

}  // namespace
}  // namespace dcp
