// Tests for DCP's packet-conservation flow control (the `awin` realization
// described in DESIGN.md) and the receiver's ACK keepalive.

#include <gtest/gtest.h>

#include "check/fuzzer.h"
#include "core/dcp_transport.h"
#include "harness/scheme.h"
#include "topo/dumbbell.h"

namespace dcp {
namespace {

struct Fixture {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  Star star;

  explicit Fixture(SwitchConfig sw, int hosts = 3) { star = build_star(net, hosts, sw); }
};

TEST(DcpCredit, SenderRespectsBdpWindowOnCleanPath) {
  SchemeSetup s = make_scheme(SchemeKind::kDcp);
  Fixture f(s.sw);
  apply_scheme(f.net, s);

  FlowSpec spec;
  spec.src = f.star.hosts[0]->id();
  spec.dst = f.star.hosts[2]->id();
  spec.bytes = 5'000'000;
  spec.msg_bytes = 4 * 1024 * 1024;
  const FlowId id = f.net.start_flow(spec);

  // Sample in-flight (sent - delivered) repeatedly; it must never
  // materially exceed the configured window.
  const std::uint64_t window = s.tcfg.cc.window_bytes;
  bool ok = true;
  std::uint64_t max_seen = 0;
  for (int i = 0; i < 300 && !f.net.all_flows_done(); ++i) {
    f.sim.run(f.sim.now() + microseconds(5));
    auto* snd = f.net.host(spec.src)->sender(id);
    auto* rcv = f.net.host(spec.dst)->receiver(id);
    if (snd == nullptr || rcv == nullptr) continue;
    const std::uint64_t sent = snd->stats().data_packets_sent * 1000;
    const std::uint64_t seen = rcv->stats().data_packets * 1000;
    const std::uint64_t inflight = sent > seen ? sent - seen : 0;
    max_seen = std::max(max_seen, inflight);
    ok = ok && inflight <= window + 16'000;  // small slack for ACK coalescing
  }
  f.net.run_until_done(seconds(2));
  EXPECT_TRUE(ok) << "max in-flight " << max_seen << " vs window " << window;
  EXPECT_TRUE(f.net.record(id).complete());
}

TEST(DcpCredit, HoReturnsCreditUnderTrimming) {
  // Shallow threshold so a large share of the window is trimmed: the flow
  // still finishes at reasonable speed because HOs return credit.
  SchemeSetup s = make_scheme(SchemeKind::kDcp);
  s.sw.trim_threshold_bytes = 32 * 1024;
  Fixture f(s.sw, 4);
  apply_scheme(f.net, s);

  std::vector<FlowId> ids;
  for (int i = 0; i < 3; ++i) {
    FlowSpec spec;
    spec.src = f.star.hosts[static_cast<std::size_t>(i)]->id();
    spec.dst = f.star.hosts[3]->id();
    spec.bytes = 1'000'000;
    spec.msg_bytes = 256 * 1024;
    ids.push_back(f.net.start_flow(spec));
  }
  f.net.run_until_done(seconds(5));
  for (FlowId id : ids) {
    const FlowRecord& rec = f.net.record(id);
    ASSERT_TRUE(rec.complete());
    EXPECT_EQ(rec.receiver.bytes_received, 1'000'000u);
  }
  EXPECT_GT(f.net.total_switch_stats().trimmed, 0u);
}

TEST(DcpCredit, SilentLossFlushedByCoarseTimeout) {
  // Silent drops leak credit; without the timeout's write-off the window
  // would close permanently and the flow would stall forever.
  SchemeSetup s = make_scheme(SchemeKind::kDcp);
  s.sw.trimming = false;  // drops are silent (no HO)
  s.sw.inject_loss_rate = 0.05;
  Fixture f(s.sw);
  apply_scheme(f.net, s);

  FlowSpec spec;
  spec.src = f.star.hosts[0]->id();
  spec.dst = f.star.hosts[2]->id();
  spec.bytes = 500'000;
  spec.msg_bytes = 100'000;
  const FlowId id = f.net.start_flow(spec);
  f.net.run_until_done(seconds(10));
  const FlowRecord& rec = f.net.record(id);
  ASSERT_TRUE(rec.complete());
  EXPECT_GE(rec.sender.timeouts, 1u);
  EXPECT_EQ(rec.receiver.bytes_received, 500'000u);
}

/// One 512 KB single-message DCP flow across a 1-spine, 2-leaf Clos whose
/// leaf-0 uplink blackholes from 30 us for `hole`.
WorldSpec blackholed_uplink(Time hole) {
  WorldSpec s = fuzz_spec(1);
  s.scheme = SchemeKind::kDcp;
  s.clos.spines = 1;
  s.clos.leaves = 2;
  s.clos.hosts_per_leaf = 1;
  s.max_time = milliseconds(100);
  WorldFlow f;
  f.src = 0;
  f.dst = 1;
  f.bytes = 512 * 1024;
  f.msg_bytes = 0;
  f.start = microseconds(5);
  s.flows.push_back(f);
  FaultAction bh;
  bh.kind = FaultKind::kBlackhole;
  bh.at = microseconds(30);
  bh.duration = hole;
  bh.sw = 1;    // leaf 0
  bh.port = 1;  // its uplink
  s.faults.actions.push_back(bh);
  return s;
}

TEST(DcpCredit, QueuedRecoveryBehindAWindowOfSilentLossesGoesOut) {
  // The blackhole eats a window of data and then the whole first timeout
  // round.  The second round's retransmissions queue behind a window that
  // only silent losses fill; the quiet timer must write those off rather
  // than defer forever while the receiver's keepalive hides the stall.
  SimWorld w(blackholed_uplink(microseconds(2500)));
  w.run_until_done();
  const FuzzVerdict v = w.finalize_verdict();
  EXPECT_FALSE(v.violated) << v.message;
  const FlowRecord& rec = w.net().records().at(0);
  ASSERT_TRUE(rec.complete()) << rec.sender.data_packets_sent << " packets sent, "
                              << rec.sender.timeouts << " timeouts";
  EXPECT_EQ(rec.receiver.bytes_received, 512u * 1024u);
  EXPECT_LT(rec.tx_done, milliseconds(10));
}

TEST(DcpCredit, ShortBlackholeRecoversThroughOneTimeoutRound) {
  // Control case: a 1.5 ms hole lifts before the first round goes out.
  SimWorld w(blackholed_uplink(microseconds(1500)));
  w.run_until_done();
  const FuzzVerdict v = w.finalize_verdict();
  EXPECT_FALSE(v.violated) << v.message;
  const FlowRecord& rec = w.net().records().at(0);
  ASSERT_TRUE(rec.complete());
  EXPECT_GE(rec.sender.timeouts, 1u);
  EXPECT_LT(rec.tx_done, milliseconds(3));
}

TEST(DcpKeepalive, LostFinalAckHealedWithoutCoarseTimeout) {
  // Run a flow to (near) completion, then surgically drop the ACK path for
  // a moment: the receiver's keepalive re-ACKs must complete the sender
  // well before the 1 ms coarse timeout would.
  SchemeSetup s = make_scheme(SchemeKind::kDcp);
  Fixture f(s.sw);
  apply_scheme(f.net, s);

  FlowSpec spec;
  spec.src = f.star.hosts[0]->id();
  spec.dst = f.star.hosts[2]->id();
  spec.bytes = 100'000;
  const FlowId id = f.net.start_flow(spec);

  // Cut the receiver's uplink just before the final ACK would be sent and
  // restore it 150 us later (well under the 1 ms RTO).
  Host* rcv_host = f.net.host(spec.dst);
  f.sim.schedule(microseconds(5), [&] { rcv_host->nic().channel().set_up(false); });
  f.sim.schedule(microseconds(160), [&] { rcv_host->nic().channel().set_up(true); });

  f.net.run_until_done(seconds(2));
  const FlowRecord& rec = f.net.record(id);
  ASSERT_TRUE(rec.complete());
  EXPECT_EQ(rec.sender.timeouts, 0u);              // keepalive, not RTO
  EXPECT_LT(rec.fct(), microseconds(900));         // healed quickly
  EXPECT_GT(rec.receiver.acks_sent, 1u);           // keepalives were sent
}

TEST(DcpCredit, StatsAccountingConsistent) {
  SchemeSetup s = make_scheme(SchemeKind::kDcp);
  s.sw.inject_loss_rate = 0.05;  // trims
  Fixture f(s.sw);
  apply_scheme(f.net, s);

  FlowSpec spec;
  spec.src = f.star.hosts[0]->id();
  spec.dst = f.star.hosts[2]->id();
  spec.bytes = 2'000'000;
  const FlowId id = f.net.start_flow(spec);
  f.net.run_until_done(seconds(5));
  const FlowRecord& rec = f.net.record(id);
  ASSERT_TRUE(rec.complete());

  // Conservation: every data transmission is either received or trimmed
  // (and the trimmed ones were retransmitted).
  auto* snd = dynamic_cast<DcpSender*>(f.net.host(spec.src)->sender(id));
  ASSERT_NE(snd, nullptr);
  EXPECT_EQ(rec.sender.data_packets_sent,
            rec.receiver.data_packets + rec.sender.ho_received);
  EXPECT_EQ(snd->dcp_stats().ho_triggered_retx + snd->dcp_stats().stale_ho,
            snd->retransq().total_pushed());
}

}  // namespace
}  // namespace dcp
