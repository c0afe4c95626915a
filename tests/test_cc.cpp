// Unit tests for the congestion-control module: static window, the DCQCN
// reaction point, and the receiver-side CNP pacing.

#include <gtest/gtest.h>

#include "cc/cc.h"
#include "cc/dcqcn.h"
#include "cc/timely.h"
#include "harness/scheme.h"
#include "topo/dumbbell.h"

namespace dcp {
namespace {

TEST(StaticWindow, ExposesConfiguredRateAndWindow) {
  StaticWindowCc cc(Bandwidth::gbps(100), 123'456);
  EXPECT_EQ(cc.window_bytes(), 123'456u);
  EXPECT_DOUBLE_EQ(cc.rate().as_gbps(), 100.0);
}

TEST(MakeCc, BuildsRequestedType) {
  Simulator sim;
  CcConfig cfg;
  cfg.type = CcConfig::Type::kStaticWindow;
  EXPECT_NE(make_cc(sim, cfg), nullptr);
  cfg.type = CcConfig::Type::kDcqcn;
  auto cc = make_cc(sim, cfg);
  ASSERT_NE(cc, nullptr);
  EXPECT_DOUBLE_EQ(cc->rate().as_gbps(), cfg.line_rate.as_gbps());
}

TEST(Dcqcn, CnpCutsRate) {
  Simulator sim;
  DcqcnRp cc(sim, Bandwidth::gbps(100), 100'000);
  EXPECT_DOUBLE_EQ(cc.current_rate_gbps(), 100.0);
  cc.on_cnp();
  // alpha starts at 1, g=1/16: alpha' ~ 1, cut ~ rc*(1-alpha/2) ~ 50%.
  EXPECT_LT(cc.current_rate_gbps(), 60.0);
  EXPECT_GT(cc.current_rate_gbps(), 40.0);
}

TEST(Dcqcn, RepeatedCnpsConvergeTowardMinRate) {
  Simulator sim;
  DcqcnRp cc(sim, Bandwidth::gbps(100), 100'000);
  for (int i = 0; i < 50; ++i) cc.on_cnp();
  EXPECT_LE(cc.current_rate_gbps(), 1.0);
  EXPECT_GE(cc.current_rate_gbps(), DcqcnRp::kMinRateGbps);
}

TEST(Dcqcn, RateRecoversViaTimers) {
  Simulator sim;
  DcqcnRp cc(sim, Bandwidth::gbps(100), 100'000);
  cc.on_cnp();
  const double cut = cc.current_rate_gbps();
  sim.run(milliseconds(20));
  EXPECT_GT(cc.current_rate_gbps(), cut);
  // Eventually back at (or near) line rate, and the event queue drains so
  // simulations can terminate.
  sim.run(seconds(1));
  EXPECT_GT(cc.current_rate_gbps(), 99.0);
  EXPECT_TRUE(sim.idle());
}

TEST(Dcqcn, AlphaDecaysWithoutCnps) {
  Simulator sim;
  DcqcnRp cc(sim, Bandwidth::gbps(100), 100'000);
  cc.on_cnp();
  const double a0 = cc.alpha();
  sim.run(milliseconds(2));
  EXPECT_LT(cc.alpha(), a0);
}

TEST(Dcqcn, ByteCounterTriggersIncrease) {
  Simulator sim;
  DcqcnRp cc(sim, Bandwidth::gbps(100), 100'000);
  cc.on_cnp();
  const double cut = cc.current_rate_gbps();
  // Acks short of the byte counter leave the rate alone; the ack that
  // completes it triggers an increase event.
  cc.on_ack(DcqcnRp::kByteCounter - 1);
  EXPECT_DOUBLE_EQ(cc.current_rate_gbps(), cut);
  cc.on_ack(1);
  EXPECT_GT(cc.current_rate_gbps(), cut);
}

TEST(Dcqcn, TimeoutResetsAggressively) {
  Simulator sim;
  DcqcnRp cc(sim, Bandwidth::gbps(100), 100'000);
  cc.on_timeout();
  EXPECT_LE(cc.current_rate_gbps(), 51.0);
  EXPECT_DOUBLE_EQ(cc.alpha(), 1.0);
  sim.run(seconds(1));  // timers must still drain
  EXPECT_TRUE(sim.idle());
}

TEST(CnpGenerator, PacesToOnePerInterval) {
  static_assert(CnpGenerator::kMinInterval == microseconds(50));
  CnpGenerator g;
  EXPECT_TRUE(g.should_send(0));
  EXPECT_FALSE(g.should_send(microseconds(10)));
  EXPECT_FALSE(g.should_send(microseconds(49)));
  EXPECT_TRUE(g.should_send(microseconds(50)));
  EXPECT_FALSE(g.should_send(microseconds(51)));
}

}  // namespace
}  // namespace dcp

// ---------------------------------------------------------------------------
// TIMELY (RTT-gradient CC)
// ---------------------------------------------------------------------------

namespace dcp {
namespace {

TEST(Timely, StartsAtLineRate) {
  TimelyCc cc(Bandwidth::gbps(100), 100'000);
  EXPECT_DOUBLE_EQ(cc.current_rate_gbps(), 100.0);
}

TEST(Timely, LowRttAdditiveIncreaseCapsAtLine) {
  TimelyCc cc(Bandwidth::gbps(100), 100'000);
  cc.on_timeout();  // knock the rate down first
  const double down = cc.current_rate_gbps();
  EXPECT_LT(down, 100.0);
  for (int i = 0; i < 200; ++i) cc.on_rtt_sample(microseconds(10));  // < t_low
  EXPECT_DOUBLE_EQ(cc.current_rate_gbps(), 100.0);
  EXPECT_GT(cc.current_rate_gbps(), down);
}

TEST(Timely, HighRttMultiplicativeDecrease) {
  TimelyCc cc(Bandwidth::gbps(100), 100'000);
  for (int i = 0; i < 20; ++i) cc.on_rtt_sample(microseconds(400));  // > t_high
  EXPECT_LT(cc.current_rate_gbps(), 50.0);
  EXPECT_GE(cc.current_rate_gbps(), TimelyCc::kMinRateGbps);
}

TEST(Timely, RisingGradientInBandDecreases) {
  TimelyCc cc(Bandwidth::gbps(100), 100'000);
  // RTTs inside [t_low, t_high] but steadily rising: positive gradient.
  for (int i = 0; i < 30; ++i) {
    cc.on_rtt_sample(microseconds(40) + i * microseconds(3));
  }
  EXPECT_GT(cc.normalized_gradient(), 0.0);
  EXPECT_LT(cc.current_rate_gbps(), 100.0);
}

TEST(Timely, FlatInBandRttRecovers) {
  TimelyCc cc(Bandwidth::gbps(100), 100'000);
  for (int i = 0; i < 20; ++i) cc.on_rtt_sample(microseconds(400));
  const double low = cc.current_rate_gbps();
  // Stable in-band RTT: zero gradient -> additive (then hyper) increase.
  for (int i = 0; i < 100; ++i) cc.on_rtt_sample(microseconds(60));
  EXPECT_GT(cc.current_rate_gbps(), low);
}

TEST(Timely, MakeCcBuildsIt) {
  Simulator sim;
  CcConfig cfg;
  cfg.type = CcConfig::Type::kTimely;
  auto cc = make_cc(sim, cfg);
  ASSERT_NE(cc, nullptr);
  EXPECT_DOUBLE_EQ(cc->rate().as_gbps(), cfg.line_rate.as_gbps());
}

TEST(TimelyIntegration, DcpWithTimelyCompletesAndThrottles) {
  // DCP + TIMELY end to end on an incast: flows finish and trims shrink
  // versus no-CC (delay-based throttling works without ECN).
  auto run = [](bool with_cc) {
    Simulator sim;
    Logger log{LogLevel::kOff};
    Network net{sim, log};
    SchemeOptions opt;
    opt.with_cc = with_cc;
    opt.cc_type = CcConfig::Type::kTimely;
    SchemeSetup s = make_scheme(SchemeKind::kDcp, opt);
    s.sw.trim_threshold_bytes = 64 * 1024;
    Star star = build_star(net, 7, s.sw);
    apply_scheme(net, s);
    for (int i = 0; i < 6; ++i) {
      FlowSpec spec;
      spec.src = star.hosts[static_cast<std::size_t>(i)]->id();
      spec.dst = star.hosts[6]->id();
      spec.bytes = 1'000'000;
      spec.msg_bytes = 256 * 1024;
      net.start_flow(spec);
    }
    net.run_until_done(seconds(10));
    EXPECT_TRUE(net.all_flows_done());
    return net.total_switch_stats().trimmed;
  };
  const auto no_cc = run(false);
  const auto timely = run(true);
  EXPECT_GT(no_cc, 0u);
  EXPECT_LT(timely, no_cc);
}

}  // namespace
}  // namespace dcp
