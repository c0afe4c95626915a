// Behavioural tests for the baseline transports: GBN go-back semantics,
// IRN selective repeat + loss-recovery mode, timeout-only recovery,
// RACK-TLP loss detection, MP-RDMA multipath windowing, and the shared
// selective-repeat retransmission queue.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "check/observer.h"
#include "harness/scheme.h"
#include "sim/snapshot.h"
#include "topo/clos.h"
#include "topo/dumbbell.h"
#include "topo/testbed.h"
#include "transports/irn.h"
#include "transports/mprdma.h"
#include "transports/selective_repeat.h"

namespace dcp {
namespace {

struct Fixture {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  Star star;

  Fixture(SchemeKind kind, double loss, int hosts = 3) {
    SchemeSetup s = make_scheme(kind);
    s.sw.inject_loss_rate = loss;
    star = build_star(net, hosts, s.sw);
    apply_scheme(net, s);
  }

  FlowId flow(int from, int to, std::uint64_t bytes) {
    FlowSpec spec;
    spec.src = star.hosts[static_cast<std::size_t>(from)]->id();
    spec.dst = star.hosts[static_cast<std::size_t>(to)]->id();
    spec.bytes = bytes;
    return net.start_flow(spec);
  }
};

TEST(Gbn, LossCausesFullWindowRetransmissions) {
  Fixture f(SchemeKind::kCx5, 0.02);
  const FlowId id = f.flow(0, 2, 1'000'000);
  f.net.run_until_done(seconds(2));
  const FlowRecord& rec = f.net.record(id);
  ASSERT_TRUE(rec.complete());
  // GBN resends everything after the loss point: retransmissions far
  // exceed the ~20 packets actually lost.
  EXPECT_GT(rec.sender.retransmitted_packets, 40u);
  EXPECT_GT(rec.receiver.duplicate_packets + rec.receiver.out_of_order_packets, 0u);
}

TEST(Gbn, CleanPathSendsExactlyOncePerPacket) {
  Fixture f(SchemeKind::kCx5, 0.0);
  const FlowId id = f.flow(0, 2, 500'000);
  f.net.run_until_done(seconds(1));
  const FlowRecord& rec = f.net.record(id);
  ASSERT_TRUE(rec.complete());
  EXPECT_EQ(rec.sender.retransmitted_packets, 0u);
  EXPECT_EQ(rec.sender.data_packets_sent, 500u);
}

TEST(Irn, SelectiveRepeatRetransmitsOnlyLosses) {
  Fixture f(SchemeKind::kIrn, 0.02);
  const FlowId id = f.flow(0, 2, 1'000'000);
  f.net.run_until_done(seconds(2));
  const FlowRecord& rec = f.net.record(id);
  ASSERT_TRUE(rec.complete());
  // 2% of 1000 packets ~ 20 losses; selective repeat stays near that, far
  // below GBN's full-window resends.
  EXPECT_LT(rec.sender.retransmitted_packets, 80u);
  EXPECT_GT(rec.sender.retransmitted_packets, 0u);
  EXPECT_EQ(rec.receiver.bytes_received, 1'000'000u);
}

TEST(Irn, TailLossNeedsRto) {
  // Single-packet flow whose only packet is lost: no SACK can ever be
  // generated, so recovery must come from a timeout (§2.2 Issue #2).
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  SchemeSetup s = make_scheme(SchemeKind::kIrn);
  // Drop the very first data packet deterministically via 100% loss, then
  // heal the switch so the retransmission gets through.
  s.sw.inject_loss_rate = 1.0;
  Star star = build_star(net, 2, s.sw);
  apply_scheme(net, s);
  FlowSpec spec;
  spec.src = star.hosts[0]->id();
  spec.dst = star.hosts[1]->id();
  spec.bytes = 800;
  const FlowId id = net.start_flow(spec);
  sim.run(microseconds(50));
  star.sw->config().inject_loss_rate = 0.0;
  net.run_until_done(seconds(1));
  const FlowRecord& rec = net.record(id);
  ASSERT_TRUE(rec.complete());
  EXPECT_GE(rec.sender.timeouts, 1u);
}

TEST(Irn, SpuriousRetransmissionsUnderReordering) {
  // Reordering without loss: on a CLOS, the leaf's AR decision sees only
  // its uplink queues, not the spine *downlink* queues, so consecutive
  // packets routed via different spines can overtake each other.  IRN's
  // SACK logic misreads the OOO arrivals as loss (paper Fig. 1).
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  SchemeSetup s = make_scheme(SchemeKind::kIrn);  // AR by default
  ClosParams cp;
  cp.spines = 4;
  cp.leaves = 4;
  cp.hosts_per_leaf = 4;
  cp.sw = s.sw;
  ClosTopology topo = build_clos(net, cp);
  apply_scheme(net, s);
  std::vector<FlowId> ids;
  // Several racks converge on rack 0: spine downlinks toward leaf 0 queue
  // unevenly.
  for (int i = 0; i < 8; ++i) {
    FlowSpec spec;
    spec.src = topo.hosts[static_cast<std::size_t>(4 + i)]->id();  // racks 1-2
    spec.dst = topo.hosts[static_cast<std::size_t>(i % 4)]->id();  // rack 0
    spec.bytes = 2'000'000;
    ids.push_back(net.start_flow(spec));
  }
  net.run_until_done(seconds(2));
  std::uint64_t retx = 0, dups = 0, drops = 0;
  for (FlowId id : ids) {
    const FlowRecord& rec = net.record(id);
    ASSERT_TRUE(rec.complete());
    retx += rec.sender.retransmitted_packets;
    dups += rec.receiver.duplicate_packets;
    drops += 0;
  }
  drops = net.total_switch_stats().dropped_data + net.total_switch_stats().injected_drops;
  EXPECT_EQ(drops, 0u);  // no packet was actually lost...
  EXPECT_GT(retx, 0u);   // ...yet IRN retransmitted
  // Nearly every retransmission is spurious (a small tail is still in
  // flight when the sender-side stats snapshot is taken).
  EXPECT_GT(dups, retx * 9 / 10);
}

TEST(Timeout, RecoversOnlyViaRto) {
  Fixture f(SchemeKind::kTimeout, 0.02);
  const FlowId id = f.flow(0, 2, 500'000);
  f.net.run_until_done(seconds(2));
  const FlowRecord& rec = f.net.record(id);
  ASSERT_TRUE(rec.complete());
  EXPECT_GE(rec.sender.timeouts, 1u);
}

TEST(RackTlp, RecoversWithoutRtoUnderScatteredLoss) {
  Fixture f(SchemeKind::kRackTlp, 0.01);
  const FlowId id = f.flow(0, 2, 1'000'000);
  f.net.run_until_done(seconds(2));
  const FlowRecord& rec = f.net.record(id);
  ASSERT_TRUE(rec.complete());
  // RACK detects losses via later deliveries; RTOs should be rare.
  EXPECT_LE(rec.sender.timeouts, 1u);
  EXPECT_GT(rec.sender.retransmitted_packets, 0u);
}

TEST(MpRdma, SpraysAcrossVirtualPaths) {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  SchemeSetup s = make_scheme(SchemeKind::kMpRdma);
  TestbedParams tb;
  tb.sw = s.sw;
  TestbedTopology topo = build_testbed(net, tb);
  apply_scheme(net, s);
  FlowSpec spec;
  spec.src = topo.hosts[0]->id();
  spec.dst = topo.hosts[8]->id();
  spec.bytes = 4'000'000;
  const FlowId id = net.start_flow(spec);
  net.run_until_done(seconds(2));
  ASSERT_TRUE(net.record(id).complete());
  int used = 0;
  for (std::uint32_t p = 8; p < topo.sw1->num_ports(); ++p) {
    if (topo.sw1->port(p).stats().tx_packets > 50) ++used;
  }
  EXPECT_GE(used, 4);  // one flow spread over many cross links
}

TEST(MpRdma, EcnShrinksWindow) {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  SchemeSetup s = make_scheme(SchemeKind::kMpRdma);
  s.sw.ecn_kmin_bytes = 5'000;  // mark aggressively
  s.sw.ecn_kmax_bytes = 20'000;
  s.sw.ecn_pmax = 1.0;
  Star star = build_star(net, 4, s.sw);
  apply_scheme(net, s);
  std::vector<FlowId> ids;
  for (int i = 0; i < 3; ++i) {
    FlowSpec spec;
    spec.src = star.hosts[static_cast<std::size_t>(i)]->id();
    spec.dst = star.hosts[3]->id();
    spec.bytes = 2'000'000;
    ids.push_back(net.start_flow(spec));
  }
  // Let congestion develop, then inspect a live window.
  sim.run(microseconds(300));
  auto* snd = dynamic_cast<MpRdmaSender*>(net.host(star.hosts[0]->id())->sender(ids[0]));
  ASSERT_NE(snd, nullptr);
  const double bdp_pkts = 100'000.0 / 1000.0;
  EXPECT_LT(snd->cwnd_pkts(), bdp_pkts);  // shrunk below initial window
  net.run_until_done(seconds(2));
  for (FlowId id : ids) ASSERT_TRUE(net.record(id).complete());
}

// Two RTOs with no NIC drain between them (PFC holds the sender's NIC
// paused) re-mark every outstanding PSN twice.  The retransmission queue
// must still pop only queued PSNs once RESUME arrives: a cursor left past
// a queued PSN walks off the end of the flow, sending PSNs that do not
// exist while the real ones stay queued forever.
class RtoWhilePaused : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(RtoWhilePaused, QueueDrainsOnlyTheFlowsPsnsAfterResume) {
  Fixture f(GetParam(), 1.0);  // every first transmission is dropped
  Host* src = f.star.hosts[0];
  struct PastEnd final : CheckObserver {
    NodeId host = kInvalidNode;
    int sent = 0;
    void on_host_send(const Packet& pkt) override {
      if (pkt.src == host && pkt.type == PktType::kData && pkt.psn >= 20) ++sent;
    }
  } past_end;
  past_end.host = src->id();
  f.sim.set_check_observer(&past_end);
  const FlowId id = f.flow(0, 2, 20'000);  // PSNs 0..19

  Packet pfc;
  pfc.type = PktType::kPfcPause;
  f.sim.schedule_at(microseconds(5), [&] { src->receive(pfc, 0); });
  f.sim.schedule_at(milliseconds(3), [&] {
    f.star.sw->config().inject_loss_rate = 0.0;
    pfc.type = PktType::kPfcResume;
    src->receive(pfc, 0);
  });
  f.net.run_until_done(milliseconds(50));
  f.sim.set_check_observer(nullptr);

  const FlowRecord& rec = f.net.record(id);
  EXPECT_TRUE(rec.complete());
  EXPECT_EQ(rec.receiver.bytes_received, 20'000u);
  EXPECT_EQ(past_end.sent, 0);
}

INSTANTIATE_TEST_SUITE_P(SelectiveRepeat, RtoWhilePaused,
                         ::testing::Values(SchemeKind::kTimeout, SchemeKind::kIrn,
                                           SchemeKind::kMpRdma, SchemeKind::kRackTlp,
                                           SchemeKind::kTcp),
                         [](const auto& info) {
                           std::string n = scheme_name(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// Which acknowledgements dequeue a queued PSN is a per-scheme rule.  With
// the NIC paused after an RTO queued PSNs 0..9, the sender learns that
// PSNs 0 and 1 arrived (cumulative ACK), then gets SACKs for PSN 5 (new)
// and PSN 1 (already acked), and one more RTO fires before RESUME.  What
// RESUME drains shows each rule: Timeout never dequeues, RACK-TLP dequeues
// only a newly acked PSN, MP-RDMA and IRN always dequeue, and only IRN's
// RTO forgets the PSNs cumulatively acked while queued.
struct DequeueCase {
  SchemeKind kind;
  std::vector<std::uint32_t> drained;
};

class SackDequeueRules : public ::testing::TestWithParam<DequeueCase> {};

TEST_P(SackDequeueRules, ResumeDrainsWhatTheSchemeKeptQueued) {
  Fixture f(GetParam().kind, 1.0);  // every first transmission is dropped
  Host* src = f.star.hosts[0];
  const FlowId id = f.flow(0, 2, 10'000);  // PSNs 0..9
  Packet pfc;
  pfc.type = PktType::kPfcPause;
  f.sim.schedule_at(microseconds(5), [&] { src->receive(pfc, 0); });
  f.sim.run(microseconds(1500));

  SenderTransport* snd = src->sender(id);
  for (const auto& [type, sack_psn] : {std::pair{PktType::kAck, 0u}, {PktType::kSack, 5u},
                                      {PktType::kSack, 1u}}) {
    Packet ack;
    ack.type = type;
    ack.flow = id;
    ack.ack_psn = 2;
    ack.sack_psn = sack_psn;
    snd->on_packet(ack);
  }

  struct Drained final : CheckObserver {
    NodeId host = kInvalidNode;
    std::vector<std::uint32_t> psns;
    void on_host_send(const Packet& pkt) override {
      if (pkt.src == host && pkt.type == PktType::kData) psns.push_back(pkt.psn);
    }
  } drained;
  drained.host = src->id();
  f.sim.schedule_at(milliseconds(3), [&] {
    f.sim.set_check_observer(&drained);
    pfc.type = PktType::kPfcResume;
    src->receive(pfc, 0);
  });
  f.sim.run(milliseconds(3) + microseconds(1));  // the drain, before any ACK returns
  f.sim.set_check_observer(nullptr);
  EXPECT_EQ(drained.psns, GetParam().drained);
}

INSTANTIATE_TEST_SUITE_P(
    SelectiveRepeat, SackDequeueRules,
    ::testing::Values(DequeueCase{SchemeKind::kTimeout, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
                      DequeueCase{SchemeKind::kRackTlp, {0, 1, 2, 3, 4, 6, 7, 8, 9}},
                      DequeueCase{SchemeKind::kMpRdma, {0, 2, 3, 4, 6, 7, 8, 9}},
                      DequeueCase{SchemeKind::kIrn, {2, 3, 4, 6, 7, 8, 9}}),
    [](const auto& info) {
      std::string n = scheme_name(info.param.kind);
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(RetxQueue, RestoreRebuildsCountAndCursorFromTheBitmap) {
  RetxQueue q(8);
  q.push(5);
  q.push(2);
  EXPECT_EQ(q.pop(), 2u);  // the cursor now sits at 2
  q.push(7);
  std::vector<std::uint8_t> image;
  StateIO save = StateIO::saver(image);
  q.checkpoint(save);
  ASSERT_TRUE(save.ok());

  RetxQueue back(8);
  StateIO load = StateIO::loader(image);
  back.checkpoint(load);
  ASSERT_TRUE(load.ok());
  EXPECT_EQ(back.pop(), 5u);
  EXPECT_EQ(back.pop(), 7u);
  EXPECT_TRUE(back.empty());
}

TEST(Scoreboard, RestoreRejectsAWindowOutsideTheFlow) {
  Scoreboard sb(4);
  std::vector<std::uint8_t> image;
  StateIO save = StateIO::saver(image);
  sb.checkpoint(save);
  ASSERT_TRUE(save.ok());
  // snd_nxt is the image's last word: point it past the flow's 4 PSNs.
  const std::uint32_t nxt = 5;
  std::memcpy(image.data() + image.size() - sizeof nxt, &nxt, sizeof nxt);
  Scoreboard back(4);
  StateIO load = StateIO::loader(image);
  back.checkpoint(load);
  EXPECT_FALSE(load.ok());
}

}  // namespace
}  // namespace dcp
