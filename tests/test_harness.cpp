// Integration tests for the experiment harness: scheme wiring, the
// WebSearch/CLOS runner, long-flow goodput, and collective runners.

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <typeinfo>

#include "core/dcp_transport.h"
#include "harness/experiment.h"
#include "topo/dumbbell.h"
#include "transports/fec.h"
#include "transports/gbn.h"
#include "transports/irn.h"
#include "transports/mprdma.h"
#include "transports/racktlp.h"
#include "transports/tcp_lite.h"
#include "transports/timeout.h"

namespace dcp {
namespace {

const std::type_info& factory_type(SchemeKind k) {
  const SchemeSetup s = make_scheme(k);
  return typeid(*s.factory);
}

TEST(Scheme, FactoriesMatchKinds) {
  EXPECT_EQ(factory_type(SchemeKind::kDcp), typeid(DcpFactory));
  EXPECT_EQ(factory_type(SchemeKind::kIrn), typeid(IrnFactory));
  EXPECT_EQ(factory_type(SchemeKind::kIrnEcmp), typeid(IrnFactory));
  EXPECT_EQ(factory_type(SchemeKind::kPfc), typeid(GbnFactory));
  EXPECT_EQ(factory_type(SchemeKind::kCx5), typeid(GbnFactory));
  EXPECT_EQ(factory_type(SchemeKind::kMpRdma), typeid(MpRdmaFactory));
  EXPECT_EQ(factory_type(SchemeKind::kTimeout), typeid(TimeoutFactory));
  EXPECT_EQ(factory_type(SchemeKind::kRackTlp), typeid(RackTlpFactory));
  EXPECT_EQ(factory_type(SchemeKind::kTcp), typeid(TcpLiteFactory));
  EXPECT_EQ(factory_type(SchemeKind::kFec), typeid(FecFactory));
}

// Each factory is a TransportPair alias, so FactoriesMatchKinds cannot see
// which pair it names: build both ends of one flow and read their types.
struct SchemeEnds {
  SchemeKind kind;
  const std::type_info* sender;
  const std::type_info* receiver;
};

class SchemeFactory : public ::testing::TestWithParam<SchemeEnds> {};

TEST_P(SchemeFactory, BuildsTheSchemesSenderAndReceiver) {
  const SchemeEnds& want = GetParam();
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  const BackToBack b2b = build_back_to_back(net);
  const SchemeSetup s = make_scheme(want.kind);
  FlowSpec spec;
  spec.src = b2b.a->id();
  spec.dst = b2b.b->id();
  spec.bytes = 10'000;
  const std::unique_ptr<SenderTransport> snd = s.factory->make_sender(sim, *b2b.a, spec, s.tcfg);
  const std::unique_ptr<ReceiverTransport> rcv =
      s.factory->make_receiver(sim, *b2b.b, spec, s.tcfg);
  const SenderTransport& snd_ref = *snd;
  const ReceiverTransport& rcv_ref = *rcv;
  EXPECT_EQ(typeid(snd_ref), *want.sender);
  EXPECT_EQ(typeid(rcv_ref), *want.receiver);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeFactory,
    ::testing::Values(
        SchemeEnds{SchemeKind::kPfc, &typeid(GbnSender), &typeid(GbnReceiver)},
        SchemeEnds{SchemeKind::kIrn, &typeid(IrnSender), &typeid(IrnReceiver)},
        SchemeEnds{SchemeKind::kIrnEcmp, &typeid(IrnSender), &typeid(IrnReceiver)},
        SchemeEnds{SchemeKind::kMpRdma, &typeid(MpRdmaSender), &typeid(MpRdmaReceiver)},
        SchemeEnds{SchemeKind::kDcp, &typeid(DcpSender), &typeid(DcpReceiver)},
        SchemeEnds{SchemeKind::kCx5, &typeid(GbnSender), &typeid(GbnReceiver)},
        SchemeEnds{SchemeKind::kTimeout, &typeid(TimeoutSender), &typeid(OooReceiver)},
        SchemeEnds{SchemeKind::kRackTlp, &typeid(RackTlpSender), &typeid(OooReceiver)},
        SchemeEnds{SchemeKind::kTcp, &typeid(TcpLiteSender), &typeid(TcpLiteReceiver)},
        SchemeEnds{SchemeKind::kFec, &typeid(FecSender), &typeid(FecReceiver)}),
    [](const ::testing::TestParamInfo<SchemeEnds>& info) {
      std::string name;
      for (const char c : std::string(scheme_name(info.param.kind))) {
        if (std::isalnum(static_cast<unsigned char>(c))) name += c;
      }
      return name;
    });

TEST(Scheme, SwitchConfigReflectsScheme) {
  EXPECT_TRUE(make_scheme(SchemeKind::kDcp).sw.trimming);
  EXPECT_FALSE(make_scheme(SchemeKind::kIrn).sw.trimming);
  EXPECT_TRUE(make_scheme(SchemeKind::kPfc).sw.pfc.enabled);
  EXPECT_TRUE(make_scheme(SchemeKind::kMpRdma).sw.pfc.enabled);
  EXPECT_EQ(make_scheme(SchemeKind::kDcp).sw.lb, LbPolicy::kAdaptive);
  EXPECT_EQ(make_scheme(SchemeKind::kIrnEcmp).sw.lb, LbPolicy::kEcmp);
  EXPECT_EQ(make_scheme(SchemeKind::kMpRdma).sw.lb, LbPolicy::kSourcePath);
}

TEST(Scheme, DcqcnIntegrationTogglesEcn) {
  SchemeOptions cc;
  cc.with_cc = true;
  EXPECT_TRUE(make_scheme(SchemeKind::kDcp, cc).sw.ecn);
  EXPECT_FALSE(make_scheme(SchemeKind::kDcp).sw.ecn);
  EXPECT_EQ(make_scheme(SchemeKind::kDcp, cc).tcfg.cc.type, CcConfig::Type::kDcqcn);
}

TEST(Scheme, BdpMatchesRateTimesRtt) {
  // 100 Gb/s * 8 us = 100 KB.
  EXPECT_EQ(bdp_bytes(Bandwidth::gbps(100), microseconds(8)), 100'000u);
}

TEST(HarnessLongFlow, DcpHoldsGoodputAtOnePercentLoss) {
  WorldSpec p = experiment_world(Experiment::kLongFlow);
  p.scheme = SchemeKind::kDcp;
  p.loss_rate = 0.01;
  p.flows[0].bytes = 10'000'000;
  SimWorld w(p);
  FlowResult r = read_flow(w);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.goodput_gbps, 50.0);
}

TEST(HarnessLongFlow, GbnCollapsesAtOnePercentLoss) {
  WorldSpec p = experiment_world(Experiment::kLongFlow);
  p.scheme = SchemeKind::kCx5;
  p.loss_rate = 0.01;
  p.flows[0].bytes = 10'000'000;
  p.max_time = milliseconds(50);
  SimWorld w(p);
  FlowResult r = read_flow(w);
  // GBN should be far below line rate under loss.
  EXPECT_LT(r.goodput_gbps, 50.0);
}

TEST(HarnessWebSearch, SmallClosRunCompletesAllFlows) {
  WorldSpec p = experiment_world(Experiment::kWebSearch);
  p.scheme = SchemeKind::kDcp;
  p.poisson_flows = 60;
  p.load = 0.3;
  SimWorld w(p);
  WebSearchResult r = read_websearch(w);
  EXPECT_EQ(r.flows_completed, r.flows_total);
  EXPECT_GT(r.background.flows(), 0u);
  EXPECT_EQ(r.sw.dropped_ho, 0u);
}

TEST(HarnessWebSearch, AllSchemesCompleteSmallRun) {
  for (SchemeKind k : {SchemeKind::kPfc, SchemeKind::kIrn, SchemeKind::kMpRdma}) {
    WorldSpec p = experiment_world(Experiment::kWebSearch);
    p.scheme = k;
    p.poisson_flows = 40;
    SimWorld w(p);
    WebSearchResult r = read_websearch(w);
    EXPECT_EQ(r.flows_completed, r.flows_total) << scheme_name(k);
  }
}

TEST(HarnessUnequalPaths, DcpAdaptsUnderSkew) {
  const auto run = [](double ratio) {
    WorldSpec s = experiment_world(Experiment::kUnequalPaths);
    s.testbed.cross_links = unequal_cross_links(ratio);
    for (WorldFlow& f : s.flows) f.bytes = 4'000'000;
    SimWorld w(s);
    return read_unequal_paths(w);
  };
  const UnequalPathsResult dcp_even = run(1.0);
  const UnequalPathsResult dcp_skew = run(10.0);
  EXPECT_GT(dcp_even.avg_goodput_gbps, 30.0);
  // Adaptive routing keeps DCP's goodput within a sane band under skew.
  EXPECT_GT(dcp_skew.avg_goodput_gbps, 0.4 * dcp_even.avg_goodput_gbps);
}

TEST(HarnessCollective, AllReduceFinishesOnTestbed) {
  WorldSpec p = experiment_world(Experiment::kCollective);
  p.scheme = SchemeKind::kDcp;
  p.topo = TopoKind::kTestbed;
  p.groups = 4;
  p.members = 4;
  p.collective_bytes = 4 * 1024 * 1024;
  SimWorld w(p);
  CollectiveResult r = read_collectives(w);
  EXPECT_TRUE(r.all_done);
  ASSERT_EQ(r.jct_ms.size(), 4u);
  for (double j : r.jct_ms) EXPECT_GT(j, 0.0);
  EXPECT_GT(r.ideal_jct_ms, 0.0);
}

TEST(HarnessCollective, AllToAllFinishesOnClos) {
  WorldSpec p = experiment_world(Experiment::kCollective);
  p.scheme = SchemeKind::kDcp;
  p.collective = CollectiveKind::kAllToAll;
  p.groups = 2;
  p.members = 4;
  p.collective_bytes = 4 * 1024 * 1024;
  SimWorld w(p);
  CollectiveResult r = read_collectives(w);
  EXPECT_TRUE(r.all_done);
  EXPECT_EQ(r.jct_ms.size(), 2u);
}

}  // namespace
}  // namespace dcp
