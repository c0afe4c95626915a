// Parameterized property suites over randomized adverse conditions:
//
//  P1  Reliability: for every scheme, under random loss rates and fan-in,
//      every flow completes and delivers exactly its byte count.
//  P2  Lossless control plane: with the WRR weight from the paper's
//      formula, no HO packet is lost for incast scales up to N-1.
//  P3  DCP exactly-once: absent timeouts, the receiver never counts a
//      duplicate; with timeouts, completion still fires exactly once.

#include <gtest/gtest.h>

#include <tuple>

#include "check/invariant_oracle.h"
#include "core/dcp_transport.h"
#include "harness/scheme.h"
#include "net/port.h"
#include "switch/scheduler.h"
#include "topo/clos.h"
#include "topo/dumbbell.h"

namespace dcp {
namespace {

// ---------------------------------------------------------------------------
// P1: reliability sweep — (scheme, loss%, seed)
// ---------------------------------------------------------------------------

using ReliabilityParam = std::tuple<SchemeKind, int, int>;  // scheme, loss_pct10, seed

class ReliabilitySweep : public ::testing::TestWithParam<ReliabilityParam> {};

TEST_P(ReliabilitySweep, EveryByteDeliveredEveryFlowCompletes) {
  const auto [kind, loss_pct10, seed] = GetParam();
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  SchemeSetup s = make_scheme(kind);
  s.sw.inject_loss_rate = loss_pct10 / 1000.0;
  Star star = build_star(net, 5, s.sw);
  apply_scheme(net, s);

  Rng rng(static_cast<std::uint64_t>(seed));
  std::vector<FlowId> ids;
  std::vector<std::uint64_t> sizes;
  for (int i = 0; i < 6; ++i) {
    FlowSpec spec;
    const std::size_t a = rng.pick_index(5);
    std::size_t b = rng.pick_index(5);
    if (b == a) b = (a + 1) % 5;
    spec.src = star.hosts[a]->id();
    spec.dst = star.hosts[b]->id();
    spec.bytes = 1 + static_cast<std::uint64_t>(rng.uniform_int(0, 300'000));
    spec.msg_bytes = 64 * 1024;
    spec.start_time = static_cast<Time>(rng.uniform_int(0, microseconds(50)));
    ids.push_back(net.start_flow(spec));
    sizes.push_back(spec.bytes);
  }
  net.run_until_done(seconds(10));

  for (std::size_t i = 0; i < ids.size(); ++i) {
    const FlowRecord& rec = net.record(ids[i]);
    ASSERT_TRUE(rec.complete()) << scheme_name(kind) << " loss=" << loss_pct10 / 10.0 << "%";
    EXPECT_EQ(rec.receiver.bytes_received, sizes[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesUnderLoss, ReliabilitySweep,
    ::testing::Combine(::testing::Values(SchemeKind::kDcp, SchemeKind::kCx5, SchemeKind::kIrn,
                                         SchemeKind::kTimeout, SchemeKind::kRackTlp),
                       ::testing::Values(0, 5, 20, 50),  // 0%, 0.5%, 2%, 5%
                       ::testing::Values(1, 2)));

// ---------------------------------------------------------------------------
// P2: lossless control plane under incast
// ---------------------------------------------------------------------------

class LosslessCpSweep : public ::testing::TestWithParam<int> {};  // fan-in

TEST_P(LosslessCpSweep, NoHoLossUpToFormulaScale) {
  const int fan_in = GetParam();
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  SchemeSetup s = make_scheme(SchemeKind::kDcp);
  // Paper §4.2: w = (N-1)/(r-N+1), r = data/HO size ratio.
  const double r = 1073.0 / 57.0;  // ~18.8
  s.sw.control_weight = wrr_control_weight(fan_in + 1, r, /*fallback=*/4.0);
  // Shallow threshold to force trimming even at small fan-in (this suite
  // stresses the control plane, like Table 5).
  s.sw.trim_threshold_bytes = 64 * 1024;
  Star star = build_star(net, fan_in + 1, s.sw);
  apply_scheme(net, s);

  for (int i = 0; i < fan_in; ++i) {
    FlowSpec spec;
    spec.src = star.hosts[static_cast<std::size_t>(i)]->id();
    spec.dst = star.hosts[static_cast<std::size_t>(fan_in)]->id();
    spec.bytes = 200'000;
    spec.msg_bytes = 64 * 1024;
    net.start_flow(spec);
  }
  net.run_until_done(seconds(10));

  const auto sw = net.total_switch_stats();
  EXPECT_TRUE(net.all_flows_done());
  EXPECT_GT(sw.trimmed, 0u);       // the incast really overflowed the queue
  EXPECT_EQ(sw.dropped_ho, 0u);    // and the control plane stayed lossless
}

INSTANTIATE_TEST_SUITE_P(FanIn, LosslessCpSweep, ::testing::Values(2, 4, 8, 12, 16));

// ---------------------------------------------------------------------------
// P3: DCP exactly-once counting
// ---------------------------------------------------------------------------

class DcpExactlyOnce : public ::testing::TestWithParam<int> {};  // loss pct*10

TEST_P(DcpExactlyOnce, NoDuplicateCountsWithoutTimeouts) {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  SchemeSetup s = make_scheme(SchemeKind::kDcp);
  s.sw.inject_loss_rate = GetParam() / 1000.0;  // trims, never silently drops
  Star star = build_star(net, 3, s.sw);
  apply_scheme(net, s);

  FlowSpec spec;
  spec.src = star.hosts[0]->id();
  spec.dst = star.hosts[2]->id();
  spec.bytes = 400'000;
  spec.msg_bytes = 50'000;
  const FlowId id = net.start_flow(spec);
  net.run_until_done(seconds(10));

  const FlowRecord& rec = net.record(id);
  ASSERT_TRUE(rec.complete());
  if (rec.sender.timeouts == 0) {
    // Trimming guarantees exactly-once arrival: the receiver never sees the
    // same packet twice, so the counter never rejects one.
    EXPECT_EQ(rec.receiver.duplicate_packets, 0u);
  }
  EXPECT_EQ(rec.receiver.bytes_received, 400'000u);
}

INSTANTIATE_TEST_SUITE_P(LossLevels, DcpExactlyOnce, ::testing::Values(0, 10, 30, 100));

// ---------------------------------------------------------------------------
// P4: WRR weight formula behaves across the r/N plane
// ---------------------------------------------------------------------------

TEST(WrrFormula, MonotonicInIncastScale) {
  const double r = 18.8;
  double prev = 0.0;
  for (int n = 2; n < 18; ++n) {
    const double w = wrr_control_weight(n, r, 100.0);
    EXPECT_GT(w, prev);
    prev = w;
  }
}

// ---------------------------------------------------------------------------
// P5: DWRR byte-share property across weights — when both classes are
// permanently backlogged with equal packet sizes, the served byte ratio
// converges to the configured weight ratio.
// ---------------------------------------------------------------------------

class DwrrShareSweep : public ::testing::TestWithParam<int> {};  // weight*100

TEST_P(DwrrShareSweep, ServedRatioTracksWeights) {
  const double w = GetParam() / 100.0;
  DwrrPolicy policy({1.0, w});
  PortQueues queues;
  Packet p;
  p.wire_bytes = 1000;
  auto refill = [&] {
    while (queues[0].packets() < 4) queues[0].push(p);
    while (queues[1].packets() < 4) queues[1].push(p);
  };
  std::array<bool, kNumQueueClasses> paused{};
  std::array<std::uint64_t, 2> served{};
  for (int i = 0; i < 20000; ++i) {
    refill();
    const int c = policy.select(queues, paused);
    ASSERT_GE(c, 0);
    queues[static_cast<std::size_t>(c)].pop();
    policy.charge(c, 1000);
    served[static_cast<std::size_t>(c)] += 1000;
  }
  const double ratio = static_cast<double>(served[1]) / static_cast<double>(served[0]);
  EXPECT_NEAR(ratio, w, w * 0.1 + 0.02) << "weight " << w;
}

INSTANTIATE_TEST_SUITE_P(Weights, DwrrShareSweep,
                         ::testing::Values(25, 50, 100, 200, 400, 800, 1600));

// ---------------------------------------------------------------------------
// P6: PFC safety — with derived thresholds, no packet is ever dropped for
// any incast fan-in (the lossless fabric property GBN/MP-RDMA rely on).
// ---------------------------------------------------------------------------

class PfcSafetySweep : public ::testing::TestWithParam<int> {};  // fan-in

TEST_P(PfcSafetySweep, NeverDropsUnderIncast) {
  const int fan_in = GetParam();
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  SchemeSetup s = make_scheme(SchemeKind::kPfc);
  // Tight explicit thresholds so per-ingress Xoff lands below a sender's
  // steady-state queue share and PAUSE frames actually fire; the buffer
  // still covers Xoff + headroom for every port (the safety condition).
  s.sw.buffer_bytes = static_cast<std::uint64_t>(fan_in + 1) * 120 * 1024;
  s.sw.pfc.enabled = true;
  s.sw.pfc.xoff_bytes = 64 * 1024;
  s.sw.pfc.xon_bytes = 56 * 1024;
  Star star = build_star(net, fan_in + 1, s.sw);
  apply_scheme(net, s);

  for (int i = 0; i < fan_in; ++i) {
    FlowSpec spec;
    spec.src = star.hosts[static_cast<std::size_t>(i)]->id();
    spec.dst = star.hosts[static_cast<std::size_t>(fan_in)]->id();
    spec.bytes = 1'000'000;
    net.start_flow(spec);
  }
  net.run_until_done(seconds(10));

  EXPECT_TRUE(net.all_flows_done());
  const auto sw = net.total_switch_stats();
  EXPECT_EQ(sw.dropped_data, 0u);
  EXPECT_EQ(sw.dropped_buffer_full, 0u);
  EXPECT_EQ(sw.lossless_violations, 0u);
  if (fan_in >= 4) {
    EXPECT_GT(sw.pauses_sent, 0u);  // PFC actually engaged
  }
}

INSTANTIATE_TEST_SUITE_P(FanIns, PfcSafetySweep, ::testing::Values(2, 4, 8, 12));

// ---------------------------------------------------------------------------
// P7: chaos — random topology size, random scheme, random flows, random
// loss; everything must complete with exact byte counts.
// ---------------------------------------------------------------------------

class Chaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Chaos, RandomizedFabricDeliversEverything) {
  Rng rng(GetParam());
  const SchemeKind kinds[] = {SchemeKind::kDcp, SchemeKind::kIrn, SchemeKind::kCx5,
                              SchemeKind::kTimeout, SchemeKind::kRackTlp, SchemeKind::kPfc,
                              SchemeKind::kMpRdma};
  const SchemeKind kind = kinds[rng.pick_index(7)];

  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  SchemeSetup s = make_scheme(kind);
  const bool lossless = s.sw.pfc.enabled;
  if (!lossless && rng.chance(0.5)) {
    s.sw.inject_loss_rate = rng.uniform(0.0, 0.03);
  }

  ClosParams cp;
  cp.spines = 1 + static_cast<int>(rng.uniform_int(1, 4));
  cp.leaves = 2;
  cp.hosts_per_leaf = 1 + static_cast<int>(rng.uniform_int(1, 3));
  cp.sw = s.sw;
  ClosTopology topo = build_clos(net, cp);
  apply_scheme(net, s);

  const int flows = 4 + static_cast<int>(rng.uniform_int(0, 8));
  std::vector<FlowId> ids;
  std::vector<std::uint64_t> sizes;
  for (int i = 0; i < flows; ++i) {
    FlowSpec spec;
    const std::size_t a = rng.pick_index(topo.hosts.size());
    std::size_t b = rng.pick_index(topo.hosts.size());
    if (b == a) b = (a + 1) % topo.hosts.size();
    spec.src = topo.hosts[a]->id();
    spec.dst = topo.hosts[b]->id();
    spec.bytes = 1 + static_cast<std::uint64_t>(rng.uniform_int(0, 400'000));
    spec.msg_bytes = 64 * 1024;
    spec.start_time = static_cast<Time>(rng.uniform_int(0, microseconds(100)));
    ids.push_back(net.start_flow(spec));
    sizes.push_back(spec.bytes);
  }
  net.run_until_done(seconds(20));

  for (std::size_t i = 0; i < ids.size(); ++i) {
    const FlowRecord& rec = net.record(ids[i]);
    ASSERT_TRUE(rec.complete()) << scheme_name(kind) << " seed " << GetParam();
    EXPECT_EQ(rec.receiver.bytes_received, sizes[i]) << scheme_name(kind);
  }
  if (lossless) {
    EXPECT_EQ(net.total_switch_stats().lossless_violations, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Chaos, ::testing::Range<std::uint64_t>(100, 140));

// ---------------------------------------------------------------------------
// Oracle-armed P1–P3: the same adverse conditions, but with the
// InvariantOracle attached so a run fails on the *first* violated protocol
// invariant (with its event trace) instead of only on end-state asserts.
// Compact parameter sets: the unarmed sweeps above cover breadth.
// ---------------------------------------------------------------------------

#define ASSERT_ORACLE_OK(oracle) \
  ASSERT_TRUE((oracle).ok()) << (oracle).summary() << "\n" << (oracle).trace_slice()

using OracleReliabilityParam = std::tuple<SchemeKind, int>;  // scheme, loss_pct10

class OracleReliabilitySweep : public ::testing::TestWithParam<OracleReliabilityParam> {};

TEST_P(OracleReliabilitySweep, InvariantsHoldUnderLoss) {
  const auto [kind, loss_pct10] = GetParam();
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  SchemeSetup s = make_scheme(kind);
  s.sw.inject_loss_rate = loss_pct10 / 1000.0;
  Star star = build_star(net, 5, s.sw);
  apply_scheme(net, s);

  Rng rng(7);
  for (int i = 0; i < 6; ++i) {
    FlowSpec spec;
    const std::size_t a = rng.pick_index(5);
    std::size_t b = rng.pick_index(5);
    if (b == a) b = (a + 1) % 5;
    spec.src = star.hosts[a]->id();
    spec.dst = star.hosts[b]->id();
    spec.bytes = 1 + static_cast<std::uint64_t>(rng.uniform_int(0, 300'000));
    spec.msg_bytes = 64 * 1024;
    spec.start_time = static_cast<Time>(rng.uniform_int(0, microseconds(50)));
    net.start_flow(spec);
  }
  InvariantOracle oracle(net);
  net.run_until_done(seconds(10));
  oracle.finalize();
  ASSERT_ORACLE_OK(oracle);
  EXPECT_TRUE(net.all_flows_done());
}

INSTANTIATE_TEST_SUITE_P(SchemesUnderLoss, OracleReliabilitySweep,
                         ::testing::Combine(::testing::Values(SchemeKind::kDcp, SchemeKind::kCx5,
                                                              SchemeKind::kIrn,
                                                              SchemeKind::kRackTlp),
                                            ::testing::Values(0, 20)));

class OracleLosslessCpSweep : public ::testing::TestWithParam<int> {};  // fan-in

TEST_P(OracleLosslessCpSweep, InvariantsHoldUnderIncastTrimming) {
  const int fan_in = GetParam();
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  SchemeSetup s = make_scheme(SchemeKind::kDcp);
  const double r = 1073.0 / 57.0;
  s.sw.control_weight = wrr_control_weight(fan_in + 1, r, /*fallback=*/4.0);
  s.sw.trim_threshold_bytes = 64 * 1024;
  Star star = build_star(net, fan_in + 1, s.sw);
  apply_scheme(net, s);

  for (int i = 0; i < fan_in; ++i) {
    FlowSpec spec;
    spec.src = star.hosts[static_cast<std::size_t>(i)]->id();
    spec.dst = star.hosts[static_cast<std::size_t>(fan_in)]->id();
    spec.bytes = 200'000;
    spec.msg_bytes = 64 * 1024;
    net.start_flow(spec);
  }
  InvariantOracle oracle(net);
  net.run_until_done(seconds(10));
  oracle.finalize();
  ASSERT_ORACLE_OK(oracle);
  EXPECT_TRUE(net.all_flows_done());
  EXPECT_GT(net.total_switch_stats().trimmed, 0u);  // HO ledger actually exercised
}

INSTANTIATE_TEST_SUITE_P(FanIn, OracleLosslessCpSweep, ::testing::Values(4, 12));

class OracleDcpExactlyOnce : public ::testing::TestWithParam<int> {};  // loss pct*10

TEST_P(OracleDcpExactlyOnce, InvariantsHoldAcrossTimeoutRounds) {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  SchemeSetup s = make_scheme(SchemeKind::kDcp);
  s.sw.inject_loss_rate = GetParam() / 1000.0;
  Star star = build_star(net, 3, s.sw);
  apply_scheme(net, s);

  FlowSpec spec;
  spec.src = star.hosts[0]->id();
  spec.dst = star.hosts[2]->id();
  spec.bytes = 400'000;
  spec.msg_bytes = 50'000;
  const FlowId id = net.start_flow(spec);
  InvariantOracle oracle(net);
  net.run_until_done(seconds(10));
  oracle.finalize();
  ASSERT_ORACLE_OK(oracle);
  ASSERT_TRUE(net.record(id).complete());
  EXPECT_EQ(net.record(id).receiver.bytes_received, 400'000u);
}

INSTANTIATE_TEST_SUITE_P(LossLevels, OracleDcpExactlyOnce, ::testing::Values(0, 30, 100));

}  // namespace
}  // namespace dcp
