// Integration tests for the experiment harness: scheme wiring, the
// WebSearch/CLOS runner, long-flow goodput, collective runners, and the
// star and back-to-back fixture worlds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

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

constexpr SchemeKind kAllKinds[] = {
    SchemeKind::kPfc,  SchemeKind::kIrn, SchemeKind::kIrnEcmp, SchemeKind::kMpRdma,
    SchemeKind::kDcp,  SchemeKind::kCx5, SchemeKind::kTimeout, SchemeKind::kRackTlp,
    SchemeKind::kTcp,  SchemeKind::kFec};

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

TEST(Scheme, DefaultOptionsKeepTheConfigDefaults) {
  // The option defaults are SwitchConfig's and TransportConfig's, and each
  // scheme keeps its own load balancer.
  const SwitchConfig sw;
  const TransportConfig tc;
  for (const SchemeKind k : kAllKinds) {
    const SchemeSetup s = make_scheme(k);
    EXPECT_EQ(s.sw.buffer_bytes, sw.buffer_bytes) << scheme_name(k);
    EXPECT_EQ(s.sw.trim_threshold_bytes, sw.trim_threshold_bytes) << scheme_name(k);
    EXPECT_EQ(s.sw.max_data_queue_bytes, sw.max_data_queue_bytes) << scheme_name(k);
    EXPECT_EQ(s.sw.control_weight, sw.control_weight) << scheme_name(k);
    EXPECT_EQ(s.sw.ecn_kmin_bytes, sw.ecn_kmin_bytes) << scheme_name(k);
    EXPECT_EQ(s.sw.ecn_kmax_bytes, sw.ecn_kmax_bytes) << scheme_name(k);
    EXPECT_EQ(s.tcfg.retrans_batch, tc.retrans_batch) << scheme_name(k);
    EXPECT_EQ(s.tcfg.pcie_rtt, tc.pcie_rtt) << scheme_name(k);
    const LbPolicy own = k == SchemeKind::kDcp || k == SchemeKind::kIrn ? LbPolicy::kAdaptive
                         : k == SchemeKind::kMpRdma                     ? LbPolicy::kSourcePath
                                                                        : LbPolicy::kEcmp;
    EXPECT_EQ(s.sw.lb, own) << scheme_name(k);
  }
}

TEST(Scheme, OptionsReachTheSwitchAndTransport) {
  SchemeOptions opt;
  opt.with_cc = true;
  opt.data_queue_bytes = 65536;
  opt.control_weight = 0.25;
  opt.retrans_batch = 4;
  opt.pcie_rtt = microseconds(2);
  const SchemeSetup dcp = make_scheme(SchemeKind::kDcp, opt);
  EXPECT_EQ(dcp.sw.trim_threshold_bytes, 65536u);
  // DCQCN marks below the trim threshold, at 1/5 and 4/5 of the depth.
  EXPECT_EQ(dcp.sw.ecn_kmin_bytes, 13107u);
  EXPECT_EQ(dcp.sw.ecn_kmax_bytes, 52428u);
  EXPECT_EQ(dcp.sw.control_weight, 0.25);
  EXPECT_EQ(dcp.tcfg.retrans_batch, 4u);
  EXPECT_EQ(dcp.tcfg.pcie_rtt, microseconds(2));
  // A lossy switch tail-drops at the same depth.
  EXPECT_EQ(make_scheme(SchemeKind::kIrn, opt).sw.max_data_queue_bytes, 65536u);
  for (const SchemeKind k : kAllKinds) {
    opt.lb = LbPolicy::kSpray;
    EXPECT_EQ(make_scheme(k, opt).sw.lb, LbPolicy::kSpray) << scheme_name(k);
    opt.lb = LbPolicy::kFlowlet;
    EXPECT_EQ(make_scheme(k, opt).sw.lb, LbPolicy::kFlowlet) << scheme_name(k);
  }
}

TEST(Scheme, LossySwitchTailDropsAtTheDataQueueDepth) {
  // Four senders into one star port: IRN's data queue never holds more
  // than the depth plus the one packet admitted just below it.
  WorldSpec s;
  s.scheme = SchemeKind::kIrn;
  s.topo = TopoKind::kStar;
  s.star_hosts = 5;
  s.opt.data_queue_bytes = 65536;
  for (int i = 0; i < 4; ++i) s.flows.push_back({i, 4, 1024 * 1024, 256 * 1024});
  SimWorld w(s);
  w.run_until_done();
  EXPECT_TRUE(w.net().all_flows_done());
  EXPECT_GT(w.net().total_switch_stats().dropped_data, 0u);
  Switch& sw = *w.net().switches()[0];
  std::uint64_t peak = 0;
  for (std::uint32_t p = 0; p < sw.num_ports(); ++p) {
    peak = std::max(peak, sw.port(p).queue(static_cast<int>(QueueClass::kData)).max_bytes_seen());
  }
  EXPECT_GT(peak, 60'000u);
  EXPECT_LT(peak, 65536u + 2048u);
}

TEST(Scheme, BdpMatchesRateTimesRtt) {
  // 100 Gb/s * 8 us = 100 KB.
  EXPECT_EQ(bdp_bytes(Bandwidth::gbps(100), microseconds(8)), 100'000u);
}

// Everything SimWorld::digest() reads of a finished network, plus each
// flow's endpoints, hashed.
std::uint64_t outcome(const Network& net) {
  Fnv64 h;
  const auto pod = [&h](const auto& v) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof v; ++i) h.u64(bytes[i]);
  };
  for (const FlowRecord& r : net.records()) {
    h.u64(r.spec.src);
    h.u64(r.spec.dst);
    h.i64(r.rx_done);
    h.i64(r.tx_done);
    pod(r.sender);
    pod(r.receiver);
  }
  pod(net.total_switch_stats());
  return h.value();
}

TEST(SimWorldFixtures, StarAndCableMatchAHandWiredBuild) {
  // The fixture worlds are the fixture builders plus the scheme and the
  // flows, nothing more: a hand-wired build of the same world ends at the
  // same records, switch counters and event count.
  for (const TopoKind topo : {TopoKind::kStar, TopoKind::kBackToBack}) {
    for (const SchemeKind k : {SchemeKind::kDcp, SchemeKind::kIrn}) {
      const std::string label = std::string(topo == TopoKind::kStar ? "star " : "cable ") +
                                scheme_name(k);
      WorldSpec s;
      s.topo = topo;
      s.scheme = k;
      s.star_hosts = 5;
      s.opt.data_queue_bytes = 65536;  // the star's burst trims or drops
      s.max_time = milliseconds(20);
      if (topo == TopoKind::kStar) {
        for (int i = 0; i < 4; ++i) s.flows.push_back({i, 4, 512 * 1024, 64 * 1024});
      } else {
        s.flows = {{0, 1, 2 * 1024 * 1024, 256 * 1024}, {1, 0, 64 * 1024, 0, microseconds(5)}};
      }
      SimWorld w(s);
      w.run_until_done();

      Simulator sim;
      Logger log(LogLevel::kError);
      Network net(sim, log);
      const SchemeSetup setup = make_scheme(k, s.opt);
      std::vector<Host*> hosts;
      if (topo == TopoKind::kStar) {
        hosts = build_star(net, s.star_hosts, setup.sw).hosts;
      } else {
        const BackToBack cable = build_back_to_back(net);
        hosts = {cable.a, cable.b};
      }
      apply_scheme(net, setup);
      for (const WorldFlow& f : s.flows) {
        FlowSpec fs;
        fs.src = hosts.at(static_cast<std::size_t>(f.src))->id();
        fs.dst = hosts.at(static_cast<std::size_t>(f.dst))->id();
        fs.bytes = f.bytes;
        fs.msg_bytes = f.msg_bytes;
        fs.start_time = f.start;
        net.start_flow(fs);
      }
      net.run_until_done(s.max_time);

      EXPECT_TRUE(net.all_flows_done()) << label;
      EXPECT_EQ(outcome(w.net()), outcome(net)) << label;
      EXPECT_EQ(w.digest().events, sim.events_processed()) << label;
    }
  }
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
