// Fault-injection engine tests: FaultPlan parsing/round-trip, FaultInjector
// hooks (drop, corrupt, blackhole, flap, buffer shrink), the zero-intensity
// == baseline guarantee, and RecoveryStats episode metrics.

#include <gtest/gtest.h>

#include <string>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "harness/experiment.h"
#include "harness/scheme.h"
#include "topo/clos.h"

namespace dcp {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan parsing
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesEveryKind) {
  const char* text =
      "# catalogue\n"
      "link_flap at=100us dur=1ms sw=0 port=2 drop_inflight=true\n"
      "drop at=5ms dur=1ms rate=0.01\n"
      "corrupt at=0 rate=0.001 sw=1\n"
      "ho_loss at=2ms dur=500us rate=0.2\n"
      "buffer_shrink at=1ms dur=2ms frac=0.25 sw=all\n"
      "blackhole at=3ms dur=200us sw=0 port=0\n";
  std::string err;
  auto plan = parse_fault_plan(text, &err);
  ASSERT_TRUE(plan.has_value()) << err;
  ASSERT_EQ(plan->actions.size(), 6u);

  const FaultAction& flap = plan->actions[0];
  EXPECT_EQ(flap.kind, FaultKind::kLinkFlap);
  EXPECT_EQ(flap.at, microseconds(100));
  EXPECT_EQ(flap.duration, milliseconds(1));
  EXPECT_EQ(flap.sw, 0u);
  EXPECT_EQ(flap.port, 2u);
  EXPECT_TRUE(flap.drop_in_flight);

  const FaultAction& drop = plan->actions[1];
  EXPECT_EQ(drop.sw, FaultAction::kAll);
  EXPECT_EQ(drop.port, FaultAction::kAll);
  EXPECT_DOUBLE_EQ(drop.rate, 0.01);
  EXPECT_EQ(drop.end(), milliseconds(5) + milliseconds(1));

  // Rate fault with no duration lasts until the end of the run.
  EXPECT_EQ(plan->actions[2].end(), kTimeInfinity);
  EXPECT_DOUBLE_EQ(plan->actions[4].frac, 0.25);
}

TEST(FaultPlan, RoundTripsThroughConfigText) {
  const char* text =
      "link_flap at=100us dur=1ms sw=0 port=2 drop_inflight=true\n"
      "drop at=5ms dur=1ms rate=0.01\n"
      "ho_loss at=2ms rate=0.2\n"
      "buffer_shrink at=1ms dur=2ms frac=0.25\n"
      "blackhole at=3ms dur=200us sw=1 port=3\n";
  auto plan = parse_fault_plan(text);
  ASSERT_TRUE(plan.has_value());
  auto again = parse_fault_plan(plan->to_config_text());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*plan, *again);
}

TEST(FaultPlan, RejectsBadInput) {
  std::string err;
  EXPECT_FALSE(parse_fault_action("warp_core_breach at=1ms", &err).has_value());
  EXPECT_FALSE(parse_fault_action("drop at=1ms rate=1.5", &err).has_value());
  EXPECT_FALSE(parse_fault_action("drop at=-1ms rate=0.1", &err).has_value());
  EXPECT_FALSE(parse_fault_action("drop at=1ms rate=abc", &err).has_value());
  EXPECT_FALSE(parse_fault_action("buffer_shrink at=0 frac=2", &err).has_value());
}

TEST(FaultPlan, NoopDetection) {
  FaultAction a;
  a.kind = FaultKind::kDrop;
  a.rate = 0.0;
  EXPECT_TRUE(a.is_noop());
  a.rate = 0.1;
  EXPECT_FALSE(a.is_noop());

  FaultAction flap;
  flap.kind = FaultKind::kLinkFlap;
  flap.duration = 0;
  EXPECT_TRUE(flap.is_noop());
  flap.duration = microseconds(1);
  EXPECT_FALSE(flap.is_noop());

  FaultAction shrink;
  shrink.kind = FaultKind::kBufferShrink;
  shrink.frac = 1.0;
  EXPECT_TRUE(shrink.is_noop());

  FaultPlan plan;
  plan.actions = {a, flap, shrink};
  EXPECT_TRUE(plan.has_effect());
  plan.actions = {shrink};
  EXPECT_FALSE(plan.has_effect());
}

// ---------------------------------------------------------------------------
// FaultInjector against a live fabric
// ---------------------------------------------------------------------------

struct FaultFixture {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  ClosTopology topo;
  FlowId id = 0;

  // 2x2x2 clos with one cross-rack DCP flow, the fault drill's shape.
  void build(std::uint64_t bytes = 4'000'000) {
    SchemeSetup s = make_scheme(SchemeKind::kDcp);
    ClosParams cp;
    cp.spines = 2;
    cp.leaves = 2;
    cp.hosts_per_leaf = 2;
    cp.sw = s.sw;
    topo = build_clos(net, cp);
    apply_scheme(net, s);
    FlowSpec spec;
    spec.src = topo.hosts[0]->id();
    spec.dst = topo.hosts[3]->id();
    spec.bytes = bytes;
    id = net.start_flow(spec);
  }
};

TEST(FaultInjector, RandomDropRecovers) {
  FaultFixture f;
  f.build();
  FaultPlan plan;
  {
    FaultAction a;
    a.kind = FaultKind::kDrop;
    a.at = microseconds(50);
    a.duration = microseconds(200);
    a.rate = 0.05;
    a.sw = 0;  // spine 0, every port
    plan.actions.push_back(a);
  }
  FaultInjector inj(f.net, plan);
  f.net.run_until_done(seconds(5));
  ASSERT_TRUE(f.net.record(f.id).complete());
  EXPECT_EQ(f.net.record(f.id).receiver.bytes_received, 4'000'000u);
  EXPECT_GT(inj.counters().dropped, 0u);
}

TEST(FaultInjector, CorruptionRecovers) {
  FaultFixture f;
  f.build();
  FaultPlan plan;
  {
    FaultAction a;
    a.kind = FaultKind::kCorrupt;
    a.at = microseconds(50);
    a.duration = microseconds(200);
    a.rate = 0.05;
    a.sw = 0;
    plan.actions.push_back(a);
  }
  FaultInjector inj(f.net, plan);
  f.net.run_until_done(seconds(5));
  ASSERT_TRUE(f.net.record(f.id).complete());
  EXPECT_GT(inj.counters().corrupted, 0u);
}

TEST(FaultInjector, BlackholePortStaysInCandidates) {
  FaultFixture f;
  f.build();
  FaultPlan plan;
  {
    FaultAction a;
    a.kind = FaultKind::kBlackhole;
    a.at = microseconds(50);
    a.duration = microseconds(150);
    a.sw = 0;
    a.port = 0;
    plan.actions.push_back(a);
  }
  Switch* spine0 = f.topo.spines[0];
  FaultInjector inj(f.net, plan);
  bool was_up_during_fault = false;
  f.sim.schedule(microseconds(100), [&] {
    // The defining property of a blackhole: routing never notices.
    was_up_during_fault = spine0->link_up(0);
  });
  f.net.run_until_done(seconds(5));
  ASSERT_TRUE(f.net.record(f.id).complete());
  EXPECT_TRUE(was_up_during_fault);
  EXPECT_GT(inj.counters().blackholed, 0u);
}

TEST(FaultInjector, LinkFlapDropsInFlightAndRestores) {
  FaultFixture f;
  f.build(8'000'000);
  FaultPlan plan;
  {
    FaultAction a;
    a.kind = FaultKind::kLinkFlap;
    a.at = microseconds(60);
    a.duration = microseconds(300);
    a.sw = 0;  // spine 0, every port: the whole spine goes dark
    a.drop_in_flight = true;
    plan.actions.push_back(a);
  }
  Switch* spine0 = f.topo.spines[0];
  FaultInjector inj(f.net, plan);
  bool down_during = true;
  f.sim.schedule(microseconds(200), [&] {
    for (std::uint32_t p = 0; p < spine0->num_ports(); ++p) {
      down_during = down_during && !spine0->link_up(p);
    }
  });
  f.net.run_until_done(seconds(5));
  ASSERT_TRUE(f.net.record(f.id).complete());
  EXPECT_EQ(f.net.record(f.id).receiver.bytes_received, 8'000'000u);
  EXPECT_TRUE(down_during);
  // Links are back up after the flap window.
  for (std::uint32_t p = 0; p < spine0->num_ports(); ++p) {
    EXPECT_TRUE(spine0->link_up(p)) << "port " << p;
  }
  const FaultInjector::Counters c = inj.counters();
  EXPECT_GT(c.link_cuts, 0u);
  EXPECT_EQ(c.link_cuts, c.link_restores);
}

TEST(FaultInjector, BufferShrinkRestoresCapacity) {
  FaultFixture f;
  f.build();
  const std::uint64_t cap0 = f.topo.spines[0]->buffer().capacity();
  ASSERT_GT(cap0, 0u);
  FaultPlan plan;
  {
    FaultAction a;
    a.kind = FaultKind::kBufferShrink;
    a.at = microseconds(50);
    a.duration = microseconds(200);
    a.frac = 0.1;
    a.sw = 0;
    plan.actions.push_back(a);
  }
  FaultInjector inj(f.net, plan);
  std::uint64_t cap_during = cap0;
  f.sim.schedule(microseconds(100), [&] { cap_during = f.topo.spines[0]->buffer().capacity(); });
  f.net.run_until_done(seconds(5));
  ASSERT_TRUE(f.net.record(f.id).complete());
  EXPECT_EQ(cap_during, static_cast<std::uint64_t>(static_cast<double>(cap0) * 0.1));
  EXPECT_EQ(f.topo.spines[0]->buffer().capacity(), cap0);  // restored bit-exactly
}

// ---------------------------------------------------------------------------
// Harness integration
// ---------------------------------------------------------------------------

std::string drill_digest(const FlowResult& r) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%d|%lld|%a|%llu|%llu|%llu|%llu", r.completed ? 1 : 0,
                static_cast<long long>(r.elapsed), r.goodput_gbps,
                static_cast<unsigned long long>(r.receiver.bytes_received),
                static_cast<unsigned long long>(r.sender.retransmitted_packets),
                static_cast<unsigned long long>(r.sender.timeouts),
                static_cast<unsigned long long>(r.sw.dropped_data));
  return buf;
}

TEST(FaultDrill, ZeroIntensityPlanMatchesBaselineBitExactly) {
  WorldSpec base = experiment_world(Experiment::kFaultDrill);
  base.flows[0].bytes = 2'000'000;

  WorldSpec zeroed = base;
  {
    FaultAction drop;  // rate 0: no-op
    drop.kind = FaultKind::kDrop;
    drop.at = microseconds(100);
    zeroed.faults.actions.push_back(drop);
    FaultAction flap;  // dur 0: no-op
    flap.kind = FaultKind::kLinkFlap;
    flap.at = microseconds(100);
    zeroed.faults.actions.push_back(flap);
    FaultAction shrink;  // frac 1: no-op
    shrink.kind = FaultKind::kBufferShrink;
    shrink.at = microseconds(100);
    zeroed.faults.actions.push_back(shrink);
  }
  ASSERT_FALSE(zeroed.faults.has_effect());

  SimWorld wa(base);
  const FlowResult a = read_flow(wa);
  SimWorld wb(zeroed);
  const FlowResult b = read_flow(wb);
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(drill_digest(a), drill_digest(b));
  EXPECT_TRUE(b.fault_episodes.empty());  // nothing armed, nothing measured
}

TEST(FaultDrill, RecoveryEpisodeMetricsAreSane) {
  WorldSpec p = experiment_world(Experiment::kFaultDrill);
  p.flows[0].bytes = 8'000'000;
  FaultAction a;
  a.kind = FaultKind::kDrop;
  a.at = microseconds(200);
  a.duration = microseconds(200);
  a.rate = 0.05;
  a.sw = 0;
  p.faults.actions.push_back(a);

  SimWorld w(p);
  const FlowResult r = read_flow(w);
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.fault_episodes.size(), 1u);
  const RecoveryStats::Episode& e = r.fault_episodes.front();
  EXPECT_EQ(e.label, std::string("drop"));
  EXPECT_EQ(e.start, microseconds(200));
  EXPECT_EQ(e.end, microseconds(400));
  EXPECT_GT(e.baseline_gbps, 0.0);
  EXPECT_GE(e.dip_frac, 0.0);
  EXPECT_LE(e.dip_frac, 1.0);
  EXPECT_GT(r.wire.dropped, 0u);
}

// ---------------------------------------------------------------------------
// Scheme x fault matrix gaps: GBN and MP-RDMA under ho_loss and blackhole.
// All four run oracle-armed — the drill must ride the fault out without
// breaking any protocol invariant.
// ---------------------------------------------------------------------------

WorldSpec matrix_spec(SchemeKind scheme) {
  WorldSpec p = experiment_world(Experiment::kFaultDrill);
  p.scheme = scheme;
  p.flows[0].bytes = 2'000'000;
  p.oracle = true;
  return p;
}

FaultAction ho_loss_action() {
  FaultAction a;
  a.kind = FaultKind::kHoLoss;
  a.at = microseconds(50);
  a.rate = 0.5;  // would be devastating for DCP's control plane
  return a;
}

FaultAction blackhole_action() {
  FaultAction a;
  a.kind = FaultKind::kBlackhole;
  a.at = microseconds(50);
  a.duration = microseconds(200);
  // Every switch, every port: a single-path scheme (CX5's ECMP draw) can
  // hash around a one-switch blackhole and never cross it.
  a.sw = FaultAction::kAll;
  return a;
}

// GBN and MP-RDMA carry their ACKs/NACKs in the ordinary data queue, so a
// control-queue loss fault has nothing to bite on: the run must match the
// fault-free baseline bit-exactly and count zero injected control drops.
class HoLossVacuousSweep : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(HoLossVacuousSweep, MatchesBaselineBitExactly) {
  WorldSpec base = matrix_spec(GetParam());
  WorldSpec faulted = base;
  faulted.faults.actions.push_back(ho_loss_action());
  ASSERT_TRUE(faulted.faults.has_effect());

  SimWorld wa(base);
  const FlowResult a = read_flow(wa);
  SimWorld wb(faulted);
  const FlowResult b = read_flow(wb);
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(drill_digest(a), drill_digest(b));
  EXPECT_EQ(b.sw.injected_ho_drops, 0u);
  EXPECT_EQ(b.sw.injected_ctrl_drops, 0u);
  EXPECT_TRUE(b.violations.empty()) << b.violations.front().invariant << ": "
                                    << b.violations.front().detail;
}

INSTANTIATE_TEST_SUITE_P(Schemes, HoLossVacuousSweep,
                         ::testing::Values(SchemeKind::kCx5, SchemeKind::kPfc,
                                           SchemeKind::kMpRdma));

class BlackholeSweep : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(BlackholeSweep, RecoversWithInvariantsIntact) {
  WorldSpec p = matrix_spec(GetParam());
  p.faults.actions.push_back(blackhole_action());

  SimWorld w(p);
  const FlowResult r = read_flow(w);
  ASSERT_TRUE(r.completed) << scheme_name(GetParam());
  EXPECT_EQ(r.receiver.bytes_received, 2'000'000u);
  EXPECT_GT(r.wire.blackholed, 0u);
  EXPECT_TRUE(r.violations.empty()) << r.violations.front().invariant << ": "
                                    << r.violations.front().detail;
}

INSTANTIATE_TEST_SUITE_P(Schemes, BlackholeSweep,
                         ::testing::Values(SchemeKind::kCx5, SchemeKind::kMpRdma));

TEST(FaultDrill, SameSeedSamePlanIsDeterministic) {
  WorldSpec p = experiment_world(Experiment::kFaultDrill);
  p.flows[0].bytes = 2'000'000;
  FaultAction a;
  a.kind = FaultKind::kDrop;
  a.at = microseconds(100);
  a.rate = 0.02;
  p.faults.actions.push_back(a);

  SimWorld w1(p);
  const FlowResult r1 = read_flow(w1);
  SimWorld w2(p);
  const FlowResult r2 = read_flow(w2);
  EXPECT_EQ(drill_digest(r1), drill_digest(r2));
  EXPECT_EQ(r1.wire.dropped, r2.wire.dropped);
}

TEST(FaultDrill, UnsetInjectorSeedFollowsTheRunSeed) {
  // The builder derives an unset injector seed from `seed`, so a seed set
  // after taking the preset moves the fault stream; the drill's Clos draws
  // nothing else from `seed`.
  WorldSpec s = experiment_world(Experiment::kFaultDrill);
  s.flows[0].bytes = 2'000'000;
  FaultAction a;
  a.kind = FaultKind::kDrop;
  a.at = microseconds(100);
  a.rate = 0.02;
  s.faults.actions.push_back(a);
  const auto digest = [](const WorldSpec& spec) {
    SimWorld w(spec);
    w.run_until_done();
    return w.digest();
  };
  WorldSpec reseeded = s;
  reseeded.seed = 77;
  WorldSpec explicit_seed = s;
  explicit_seed.injector_seed = 77 ^ kInjectorSeedTag;
  EXPECT_EQ(digest(reseeded), digest(explicit_seed));
  EXPECT_NE(digest(reseeded), digest(s));
}

}  // namespace
}  // namespace dcp
