// Byte-exact wire-format tests: encoded sizes match the paper's header
// arithmetic (57-byte header-only packets!), fields round-trip through
// encode/decode, checksums validate, and corrupted input is rejected.
// Live packets are tapped through the CheckObserver seam, and the same tap
// checks the paths packets take: the HO bounce, per-flow endpoints, incast
// trims and exactly-once payload delivery.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "check/observer.h"
#include "core/dcp_transport.h"
#include "harness/scheme.h"
#include "support/wire.h"
#include "sim/rng.h"
#include "topo/dumbbell.h"

namespace dcp {
namespace {

Packet data_packet(RdmaOp op) {
  Packet p;
  p.type = PktType::kData;
  p.tag = DcpTag::kData;
  p.op = op;
  p.src = 3;
  p.dst = 7;
  p.sport = 12345;
  p.flow = 0xABCDE;
  p.psn = 1234567;
  p.msn = 42;
  p.ssn = 42;
  p.retry_no = 2;
  p.remote_addr = 0x1122334455667788ull;
  p.payload_bytes = 1000;
  p.wire_bytes = wire::header_bytes(p) + p.payload_bytes;
  p.ecn_capable = true;
  p.last_of_msg = true;
  return p;
}

TEST(Wire, HeaderSizesMatchPaperArithmetic) {
  // Fig. 4 footnote: 57 B = 14 MAC + 20 IP + 8 UDP + 12 BTH + 3 MSN.
  Packet ho;
  ho.type = PktType::kHeaderOnly;
  ho.tag = DcpTag::kHeaderOnly;
  EXPECT_EQ(wire::header_bytes(ho), 57u);
  EXPECT_EQ(wire::encode(ho).size(), 57u);

  // DCP data packets: +RETH (one-sided, every packet) and/or +SSN.
  EXPECT_EQ(wire::header_bytes(data_packet(RdmaOp::kWrite)),
            dcp_data_header_bytes(RdmaOp::kWrite));
  EXPECT_EQ(wire::header_bytes(data_packet(RdmaOp::kSend)),
            dcp_data_header_bytes(RdmaOp::kSend));
  EXPECT_EQ(wire::header_bytes(data_packet(RdmaOp::kWriteWithImm)),
            dcp_data_header_bytes(RdmaOp::kWriteWithImm));

  // DCP ACK: 58 RoCE ACK + 3 eMSN = 61.
  Packet ack;
  ack.type = PktType::kAck;
  EXPECT_EQ(wire::header_bytes(ack), HeaderSizes::kDcpAck);
}

TEST(Wire, DataPacketRoundTripsAllFields) {
  for (RdmaOp op : {RdmaOp::kWrite, RdmaOp::kSend, RdmaOp::kWriteWithImm}) {
    const Packet p = data_packet(op);
    const auto bytes = wire::encode(p, /*include_payload=*/true);
    EXPECT_EQ(bytes.size(), wire::header_bytes(p) + 1000u);
    const auto q = wire::decode(bytes);
    ASSERT_TRUE(q.has_value()) << static_cast<int>(op);
    EXPECT_EQ(q->type, PktType::kData);
    EXPECT_EQ(q->op, op);
    EXPECT_EQ(q->src, p.src);
    EXPECT_EQ(q->dst, p.dst);
    EXPECT_EQ(q->sport, p.sport);
    EXPECT_EQ(q->flow, p.flow & 0xFFFFFF);  // 24-bit QPN on the wire
    EXPECT_EQ(q->psn, p.psn);
    EXPECT_EQ(q->msn, p.msn);
    EXPECT_EQ(q->retry_no, p.retry_no);
    EXPECT_EQ(q->tag, DcpTag::kData);
    EXPECT_TRUE(q->last_of_msg);
    if (op != RdmaOp::kSend) {
      EXPECT_EQ(q->remote_addr, p.remote_addr);
      EXPECT_EQ(q->payload_bytes, 1000u);  // RETH length field
    }
    if (op != RdmaOp::kWrite) {
      EXPECT_EQ(q->ssn, p.ssn);
    }
  }
}

TEST(Wire, HeaderOnlyRoundTrip) {
  Packet ho;
  ho.type = PktType::kHeaderOnly;
  ho.tag = DcpTag::kHeaderOnly;
  ho.src = 1;
  ho.dst = 2;
  ho.flow = 99;
  ho.psn = 555;
  ho.msn = 3;
  ho.retry_no = 1;
  const auto bytes = wire::encode(ho);
  ASSERT_EQ(bytes.size(), 57u);
  const auto q = wire::decode(bytes);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->type, PktType::kHeaderOnly);
  EXPECT_EQ(q->tag, DcpTag::kHeaderOnly);
  EXPECT_EQ(q->psn, 555u);
  EXPECT_EQ(q->msn, 3u);
  EXPECT_EQ(q->retry_no, 1);
  EXPECT_EQ(q->queue_class, QueueClass::kControl);
  EXPECT_EQ(q->wire_bytes, 57u);
}

TEST(Wire, AckSackNackRoundTrip) {
  Packet ack;
  ack.type = PktType::kAck;
  ack.tag = DcpTag::kAck;
  ack.src = 2;
  ack.dst = 1;
  ack.flow = 99;
  ack.ack_psn = 777;
  ack.emsn = 5;
  auto q = wire::decode(wire::encode(ack));
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->type, PktType::kAck);
  EXPECT_EQ(q->ack_psn, 777u);
  EXPECT_EQ(q->emsn, 5u);

  Packet sack = ack;
  sack.type = PktType::kSack;
  sack.sack_psn = 901;
  q = wire::decode(wire::encode(sack));
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->type, PktType::kSack);
  EXPECT_EQ(q->sack_psn, 901u);

  Packet nack = ack;
  nack.type = PktType::kNack;
  q = wire::decode(wire::encode(nack));
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->type, PktType::kNack);
}

TEST(Wire, CnpRoundTrip) {
  Packet cnp;
  cnp.type = PktType::kCnp;
  cnp.src = 4;
  cnp.dst = 9;
  cnp.flow = 1234;
  const auto q = wire::decode(wire::encode(cnp));
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->type, PktType::kCnp);
  EXPECT_EQ(q->flow, 1234u);
}

TEST(Wire, EcnBitsSurvive) {
  Packet p = data_packet(RdmaOp::kWrite);
  p.ecn_ce = true;
  auto q = wire::decode(wire::encode(p));
  ASSERT_TRUE(q.has_value());
  EXPECT_TRUE(q->ecn_ce);
  p.ecn_ce = false;
  p.ecn_capable = true;
  q = wire::decode(wire::encode(p));
  ASSERT_TRUE(q.has_value());
  EXPECT_FALSE(q->ecn_ce);
  EXPECT_TRUE(q->ecn_capable);
}

TEST(Wire, ChecksumCorruptionRejected) {
  const auto bytes = wire::encode(data_packet(RdmaOp::kWrite));
  for (std::size_t byte : {14u, 20u, 26u, 30u}) {  // inside the IP header
    auto bad = bytes;
    bad[byte] ^= 0xFF;
    EXPECT_FALSE(wire::decode(bad).has_value()) << "byte " << byte;
  }
}

TEST(Wire, TruncationRejected) {
  const auto bytes = wire::encode(data_packet(RdmaOp::kWrite));
  for (std::size_t len : {0u, 10u, 20u, 40u, 55u, 60u}) {
    EXPECT_FALSE(
        wire::decode(std::span<const std::uint8_t>(bytes.data(), len)).has_value())
        << "len " << len;
  }
}

TEST(Wire, Ipv4ChecksumKnownVector) {
  // RFC 1071 style check on a classic example header.
  const std::uint8_t hdr[20] = {0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11,
                                0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7};
  EXPECT_EQ(wire::ipv4_checksum(hdr), 0xb861);
}

TEST(Wire, AddressingIsInjectiveForSmallIds) {
  std::set<std::uint32_t> ips;
  std::set<std::uint64_t> macs;
  for (NodeId id = 0; id < 1024; ++id) {
    ips.insert(wire::ip_of_node(id));
    macs.insert(wire::mac_of_node(id));
  }
  EXPECT_EQ(ips.size(), 1024u);
  EXPECT_EQ(macs.size(), 1024u);
}

TEST(Wire, FuzzRandomizedRoundTrip) {
  Rng rng(2026);
  for (int i = 0; i < 500; ++i) {
    Packet p;
    const int kind = static_cast<int>(rng.uniform_int(0, 4));
    p.type = kind == 0   ? PktType::kData
             : kind == 1 ? PktType::kHeaderOnly
             : kind == 2 ? PktType::kAck
             : kind == 3 ? PktType::kSack
                         : PktType::kCnp;
    p.op = static_cast<RdmaOp>(rng.uniform_int(0, 2));
    p.src = static_cast<NodeId>(rng.uniform_int(0, 65535));
    p.dst = static_cast<NodeId>(rng.uniform_int(0, 65535));
    p.sport = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    p.flow = static_cast<FlowId>(rng.uniform_int(0, 0xFFFFFF));
    p.psn = static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFF));
    p.msn = static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFF));
    p.ssn = p.msn;
    p.ack_psn = static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFF));
    p.sack_psn = static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFF));
    p.emsn = static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFF));
    p.retry_no = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    p.remote_addr = static_cast<std::uint64_t>(rng.uniform_int(0, INT64_MAX));
    p.payload_bytes =
        p.type == PktType::kData ? static_cast<std::uint32_t>(rng.uniform_int(0, 1000)) : 0;

    const auto bytes = wire::encode(p);
    EXPECT_EQ(bytes.size(), wire::header_bytes(p));
    const auto q = wire::decode(bytes);
    ASSERT_TRUE(q.has_value()) << "iteration " << i;
    EXPECT_EQ(q->type, p.type);
    EXPECT_EQ(q->src, p.src);
    EXPECT_EQ(q->dst, p.dst);
    EXPECT_EQ(q->flow, p.flow);
    EXPECT_EQ(q->psn, p.psn);
  }
}

// ---------------------------------------------------------------------------
// Live-traffic integration: every packet a host emits or receives, and every
// header-only packet a switch trims, must survive an encode/decode round
// trip with its protocol-relevant fields intact — ties the metadata model to
// the wire codec under real DCP traffic including trims, HO bounces and
// ACKs.  The packets are watched through the CheckObserver seam.
// ---------------------------------------------------------------------------

struct TapEvent {
  enum Kind : std::uint8_t { kSend, kDeliver, kTrim };
  Kind kind;
  NodeId node;  // the emitting host, the delivering host, or the trimming switch
  Packet pkt;
};

/// Records every host emission, host delivery and switch trim in event
/// order.  A template for watching packets move: arm it on the run's
/// Simulator (Network::set_check_observer_all for a sharded run).
class PacketTap final : public CheckObserver {
 public:
  void on_host_send(const Packet& pkt) override {
    events.push_back({TapEvent::kSend, pkt.src, pkt});
  }
  void on_host_deliver(NodeId host, const Packet& pkt) override {
    events.push_back({TapEvent::kDeliver, host, pkt});
  }
  void on_trim(NodeId sw, const Packet& ho) override {
    events.push_back({TapEvent::kTrim, sw, ho});
  }

  std::vector<TapEvent> events;
};

/// A DCP star of `hosts` hosts whose switch trims `loss` of its data
/// packets, with a tap armed.  start() queues a flow between two hosts;
/// run_flow() runs one flow from host 0 to 2 to completion.
struct LiveStar {
  Simulator sim;
  Logger log{LogLevel::kOff};
  PacketTap tap;  // outlives the network it watches
  Network net{sim, log};
  Star star;

  explicit LiveStar(double loss, int hosts = 3) {
    SchemeSetup s = make_scheme(SchemeKind::kDcp);
    s.sw.inject_loss_rate = loss;
    star = build_star(net, hosts, s.sw);
    apply_scheme(net, s);
    sim.set_check_observer(&tap);
  }

  FlowId start(std::size_t src, std::size_t dst, std::uint64_t bytes,
               std::uint64_t msg_bytes = 0) {
    FlowSpec spec;
    spec.src = star.hosts[src]->id();
    spec.dst = star.hosts[dst]->id();
    spec.bytes = bytes;
    spec.msg_bytes = msg_bytes;
    return net.start_flow(spec);
  }

  FlowId run_flow(std::uint64_t bytes, std::uint64_t msg_bytes = 0) {
    const FlowId id = start(0, 2, bytes, msg_bytes);
    net.run_until_done(seconds(5));
    return id;
  }
};

TEST(WireLive, AllSimulatedPacketsRoundTrip) {
  LiveStar f(0.1);  // force trims -> HO -> retransmissions
  const FlowId id = f.run_flow(300'000, 64 * 1024);
  ASSERT_TRUE(f.net.record(id).complete());

  std::uint64_t failed = 0;
  for (const TapEvent& e : f.tap.events) {
    const Packet& pkt = e.pkt;
    const auto q = wire::decode(wire::encode(pkt));
    if (!q.has_value() || q->type != pkt.type || q->psn != (pkt.psn & 0xFFFFFF) ||
        q->flow != (pkt.flow & 0xFFFFFF) || q->msn != (pkt.msn & 0xFFFFFF) ||
        q->retry_no != pkt.retry_no) {
      ++failed;
    }
  }
  EXPECT_GT(f.tap.events.size(), 600u);  // data + HOs + ACKs all passed through
  EXPECT_EQ(failed, 0u);
}

TEST(WireLive, HeaderOnlySizeOnLiveTraffic) {
  // Every HO packet observed on the wire is exactly 57 bytes and its
  // encoding matches the simulator's accounting.
  LiveStar f(0.3);
  const FlowId id = f.run_flow(100'000);
  ASSERT_TRUE(f.net.record(id).complete());

  std::uint64_t ho_seen = 0;
  for (const TapEvent& e : f.tap.events) {
    if (e.pkt.type != PktType::kHeaderOnly) continue;
    ++ho_seen;
    EXPECT_EQ(e.pkt.wire_bytes, 57u);
    EXPECT_EQ(wire::encode(e.pkt).size(), 57u);
  }
  EXPECT_GT(ho_seen, 10u);
}

// §4.1: a trimmed packet's header travels switch -> receiver, bounces back
// to the sender, and the sender retransmits the data; the receiver's ACKs
// reach the sender.
TEST(ObserverTap, HoBouncePathAndAcksReachTheSender) {
  LiveStar f(1.0);  // the first copy of every packet is trimmed
  // Heal the switch after the first window so the flow finishes.
  f.sim.schedule(microseconds(30), [&] { f.star.sw->config().inject_loss_rate = 0.0; });
  const FlowId id = f.run_flow(3'000);
  ASSERT_TRUE(f.net.record(id).complete());

  const NodeId sw = f.star.sw->id();
  const NodeId src = f.star.hosts[0]->id();
  const NodeId dst = f.star.hosts[2]->id();
  auto leg = [](TapEvent::Kind kind, NodeId node) {
    static const char* const kNames[] = {"send", "deliver", "trim"};
    return std::string(kNames[kind]) + "@" + std::to_string(node);
  };
  std::vector<std::string> ho_legs;  // PSN 0 as header-only
  std::vector<std::string> data_legs;
  bool ack_at_sender = false;
  for (const TapEvent& e : f.tap.events) {
    if (e.pkt.flow != id) continue;
    if (e.pkt.psn == 0 && e.pkt.type == PktType::kHeaderOnly) {
      ho_legs.push_back(leg(e.kind, e.node));
    }
    if (e.pkt.psn == 0 && e.pkt.type == PktType::kData) data_legs.push_back(leg(e.kind, e.node));
    ack_at_sender |= e.kind == TapEvent::kDeliver && e.node == src && e.pkt.type == PktType::kAck;
  }
  ASSERT_GE(ho_legs.size(), 4u);
  const std::vector<std::string> bounce(ho_legs.begin(), ho_legs.begin() + 4);
  const std::vector<std::string> expected = {
      leg(TapEvent::kTrim, sw),      // trimmed at the switch
      leg(TapEvent::kDeliver, dst),  // first leg: to the receiver
      leg(TapEvent::kSend, dst),     // bounced back
      leg(TapEvent::kDeliver, src),  // second leg: to the sender
  };
  EXPECT_EQ(bounce, expected);
  // The data went out from the sender and, retransmitted, reached the receiver.
  ASSERT_GE(data_legs.size(), 2u);
  EXPECT_EQ(data_legs.front(), leg(TapEvent::kSend, src));
  EXPECT_EQ(data_legs.back(), leg(TapEvent::kDeliver, dst));
  EXPECT_TRUE(ack_at_sender);
}

// A lossless flow: each data PSN leaves the sender once and reaches the
// receiver once, nothing is trimmed, and the receiver's ACKs reach the
// sender.
TEST(ObserverTap, RecordsEveryPacketOfAFlow) {
  LiveStar f(0.0);
  const FlowId id = f.run_flow(5 * kMtuPayload);
  ASSERT_TRUE(f.net.record(id).complete());

  const NodeId src = f.star.hosts[0]->id();
  const NodeId dst = f.star.hosts[2]->id();
  std::vector<int> sent(5, 0);
  std::vector<int> delivered(5, 0);
  bool ack_at_sender = false;
  for (const TapEvent& e : f.tap.events) {
    EXPECT_NE(e.kind, TapEvent::kTrim);
    if (e.pkt.flow != id) continue;
    if (e.pkt.type == PktType::kData) {
      ASSERT_LT(e.pkt.psn, 5u);
      const bool send = e.kind == TapEvent::kSend;
      EXPECT_EQ(e.node, send ? src : dst);
      ++(send ? sent : delivered)[e.pkt.psn];
    }
    ack_at_sender |= e.kind == TapEvent::kDeliver && e.node == src && e.pkt.type == PktType::kAck;
  }
  EXPECT_EQ(sent, std::vector<int>(5, 1));
  EXPECT_EQ(delivered, std::vector<int>(5, 1));
  EXPECT_TRUE(ack_at_sender);
}

// Packets carry their own flow's endpoints: two flows from host 0 share
// the switch, yet each flow's data goes only to its own receiver and its
// ACKs come back only from there.  Every delivery lands at the packet's dst.
TEST(ObserverTap, ConcurrentFlowsKeepTheirOwnEndpoints) {
  LiveStar f(0.0);
  const FlowId a = f.start(0, 1, 10'000);
  const FlowId b = f.start(0, 2, 10'000);
  f.net.run_until_done(seconds(5));
  ASSERT_TRUE(f.net.record(a).complete());
  ASSERT_TRUE(f.net.record(b).complete());

  const NodeId tx = f.star.hosts[0]->id();
  std::uint64_t seen_a = 0;
  std::uint64_t seen_b = 0;
  for (const TapEvent& e : f.tap.events) {
    if (e.kind == TapEvent::kDeliver) {
      EXPECT_EQ(e.node, e.pkt.dst);
    }
    if (e.pkt.type != PktType::kData && e.pkt.type != PktType::kAck) continue;
    ASSERT_TRUE(e.pkt.flow == a || e.pkt.flow == b) << e.pkt.flow;
    const NodeId rx = (e.pkt.flow == a ? f.star.hosts[1] : f.star.hosts[2])->id();
    const bool data = e.pkt.type == PktType::kData;
    EXPECT_EQ(e.pkt.src, data ? tx : rx);
    EXPECT_EQ(e.pkt.dst, data ? rx : tx);
    ++(e.pkt.flow == a ? seen_a : seen_b);
  }
  EXPECT_GT(seen_a, 0u);
  EXPECT_GT(seen_b, 0u);
}

// Disarming is one pointer store: after set_check_observer(nullptr) the
// tap hears nothing more, and the run still finishes.
TEST(ObserverTap, DisarmingStopsTheCallbacks) {
  LiveStar f(0.0);
  std::size_t heard = 0;
  f.sim.schedule(microseconds(5), [&] {
    f.sim.set_check_observer(nullptr);
    heard = f.tap.events.size();
  });
  const FlowId id = f.run_flow(100'000);
  ASSERT_TRUE(f.net.record(id).complete());
  EXPECT_GT(heard, 0u);
  EXPECT_EQ(f.tap.events.size(), heard);
}

// A 3-to-1 incast at full windows queues at the victim's egress past a
// shallow trim threshold, with no injected loss.  Every trim happens at
// the switch and leaves a header-only packet of one of the incast flows.
TEST(ObserverTap, IncastQueueBuildUpTrimsAtTheSwitch) {
  LiveStar f(0.0, 4);
  f.star.sw->config().trim_threshold_bytes = 64 * 1024;
  std::set<FlowId> incast;
  for (std::size_t i = 0; i < 3; ++i) incast.insert(f.start(i, 3, 500'000));
  f.net.run_until_done(seconds(5));
  for (FlowId id : incast) ASSERT_TRUE(f.net.record(id).complete());

  std::uint64_t trims = 0;
  for (const TapEvent& e : f.tap.events) {
    if (e.kind != TapEvent::kTrim) continue;
    ++trims;
    EXPECT_EQ(e.node, f.star.sw->id());
    EXPECT_EQ(e.pkt.type, PktType::kHeaderOnly);
    EXPECT_EQ(e.pkt.dst, f.star.hosts[3]->id());
    EXPECT_EQ(incast.count(e.pkt.flow), 1u) << e.pkt.flow;
  }
  EXPECT_GT(trims, 0u);
}

// Precise retransmission (§4.3): under trimming the receiver still gets
// each payload byte exactly once — every trimmed PSN is resent once and
// nothing else is.
TEST(ObserverTap, TrimmedFlowDeliversEachPayloadByteOnce) {
  LiveStar f(0.1);
  const std::uint64_t bytes = 300'000;
  const FlowId id = f.run_flow(bytes, 64 * 1024);
  ASSERT_TRUE(f.net.record(id).complete());

  const NodeId dst = f.star.hosts[2]->id();
  std::uint64_t trims = 0;
  std::uint64_t payload = 0;
  for (const TapEvent& e : f.tap.events) {
    if (e.pkt.flow != id) continue;
    trims += e.kind == TapEvent::kTrim;
    if (e.kind == TapEvent::kDeliver && e.node == dst && e.pkt.type == PktType::kData) {
      payload += e.pkt.payload_bytes;
    }
  }
  EXPECT_GT(trims, 0u);
  EXPECT_EQ(payload, bytes);
}

}  // namespace
}  // namespace dcp
