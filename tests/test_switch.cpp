// Unit tests for the switch: the route table, routing/LB, packet
// trimming, the lossless control queue, ECN marking, loss injection,
// shared buffer, PFC and the switch's checkpoint section.

#include <gtest/gtest.h>

#include <utility>

#include "host/host.h"
#include "net/node.h"
#include "sim/snapshot.h"
#include "switch/switch.h"
#include "topo/clos.h"

namespace dcp {
namespace {

class SinkNode final : public Node {
 public:
  SinkNode(Simulator& sim, Logger& log, NodeId id) : Node(sim, log, id, "sink") {}
  using Node::receive;
  void receive(PacketPtr pkt, std::uint32_t) override { arrivals.push_back(std::move(*pkt)); }
  std::vector<Packet> arrivals;
};

struct SwitchFixture {
  Simulator sim;
  Logger log{LogLevel::kOff};
  std::vector<std::unique_ptr<SinkNode>> sinks;

  SinkNode* sink(NodeId id) {
    sinks.push_back(std::make_unique<SinkNode>(sim, log, id));
    return sinks.back().get();
  }
};

Packet dcp_data(NodeId src, NodeId dst, std::uint32_t psn = 0) {
  Packet p;
  p.type = PktType::kData;
  p.tag = DcpTag::kData;
  p.src = src;
  p.dst = dst;
  p.psn = psn;
  p.wire_bytes = 1057;
  p.payload_bytes = 1000;
  p.ecn_capable = true;
  return p;
}

TEST(RouteTable, DenseTableBasics) {
  RouteTable rt;
  EXPECT_FALSE(rt.has_route(0));
  EXPECT_TRUE(rt.candidates(99).empty());  // out of range: no route, no crash

  rt.add_route(5, 2);
  rt.add_route(5, 3);
  rt.add_route(1, 7);
  EXPECT_TRUE(rt.has_route(5));
  EXPECT_EQ(rt.candidates(5), (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(rt.candidates(1), (std::vector<std::uint32_t>{7}));
  EXPECT_FALSE(rt.has_route(4));  // hole between installed dsts

  rt.clear_routes(5);
  EXPECT_FALSE(rt.has_route(5));
  EXPECT_TRUE(rt.has_route(1));
}

TEST(RouteTable, DefaultGroupServesUnsetDestinations) {
  RouteTable rt;
  const std::vector<std::uint32_t> up{3, 4};
  rt.set_default_routes(up);
  EXPECT_EQ(rt.candidates(0), up);  // empty table: everything goes up
  rt.add_route(10, 1);
  rt.add_route(12, 2);
  EXPECT_EQ(rt.candidates(10), (std::vector<std::uint32_t>{1}));  // specific entry wins
  EXPECT_EQ(rt.candidates(11), up);  // hole inside the dense window
  EXPECT_EQ(rt.candidates(2), up);   // below the window
  EXPECT_EQ(rt.candidates(99), up);  // above the window
  rt.clear_routes(10);
  EXPECT_EQ(rt.candidates(10), up);  // a cleared entry falls back too
  EXPECT_EQ(rt.default_routes(), up);
}

TEST(RouteTable, FrontGrowthKeepsInstalledEntries) {
  // The dense window starts at the first installed id; a later, smaller id
  // shifts every entry back.  Inline ports and spill-list indices must
  // both survive the shift.
  RouteTable rt;
  rt.add_route(10, 1);
  rt.add_route(12, 2);
  rt.add_route(12, 3);  // two ports: a spill-list entry
  rt.add_route(4, 5);   // below the window: front growth
  EXPECT_EQ(rt.candidates(4), (std::vector<std::uint32_t>{5}));
  EXPECT_EQ(rt.candidates(10), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(rt.candidates(12), (std::vector<std::uint32_t>{2, 3}));
  for (NodeId hole : {3u, 5u, 9u, 11u, 13u}) EXPECT_FALSE(rt.has_route(hole)) << hole;

  rt.add_route(0, 6);  // grow again, down to id 0
  rt.add_route(10, 7);  // an inline entry becomes a list after the shifts
  EXPECT_EQ(rt.candidates(0), (std::vector<std::uint32_t>{6}));
  EXPECT_EQ(rt.candidates(4), (std::vector<std::uint32_t>{5}));
  EXPECT_EQ(rt.candidates(10), (std::vector<std::uint32_t>{1, 7}));
  EXPECT_EQ(rt.candidates(12), (std::vector<std::uint32_t>{2, 3}));
}

TEST(SwitchRouting, ForwardsToRoutedPort) {
  SwitchFixture f;
  Switch sw(f.sim, f.log, 100, "sw", SwitchConfig{}, 1);
  SinkNode* a = f.sink(1);
  SinkNode* b = f.sink(2);
  const auto pa = sw.add_port(Bandwidth::gbps(100), microseconds(1));
  const auto pb = sw.add_port(Bandwidth::gbps(100), microseconds(1));
  sw.connect(pa, a, 0);
  sw.connect(pb, b, 0);
  sw.routes().add_route(1, pa);
  sw.routes().add_route(2, pb);

  sw.receive(dcp_data(1, 2), pa);
  f.sim.run();
  EXPECT_EQ(a->arrivals.size(), 0u);
  ASSERT_EQ(b->arrivals.size(), 1u);
  EXPECT_EQ(sw.stats().no_route, 0u);
}

TEST(SwitchRouting, NoRouteCountsAndDrops) {
  SwitchFixture f;
  Switch sw(f.sim, f.log, 100, "sw", SwitchConfig{}, 1);
  sw.receive(dcp_data(1, 99), 0);
  f.sim.run();
  EXPECT_EQ(sw.stats().no_route, 1u);
}

TEST(SwitchLb, EcmpIsFlowStable) {
  SwitchFixture f;
  SwitchConfig cfg;
  cfg.lb = LbPolicy::kEcmp;
  Switch sw(f.sim, f.log, 100, "sw", cfg, 1);
  SinkNode* x = f.sink(5);
  std::vector<std::uint32_t> ports;
  for (int i = 0; i < 4; ++i) {
    const auto p = sw.add_port(Bandwidth::gbps(100), 0);
    sw.connect(p, x, 0);
    sw.routes().add_route(5, p);
    ports.push_back(p);
  }
  // Same flow -> same egress every time.
  for (int i = 0; i < 50; ++i) {
    Packet p = dcp_data(1, 5, static_cast<std::uint32_t>(i));
    p.flow = 42;
    p.sport = 777;
    sw.receive(std::move(p), 0);
  }
  f.sim.run();
  int used = 0;
  for (auto p : ports) {
    if (sw.port(p).stats().tx_packets > 0) ++used;
  }
  EXPECT_EQ(used, 1);
}

TEST(SwitchLb, EcmpSpreadsDistinctFlowsAcrossCandidates) {
  SwitchFixture f;
  SwitchConfig cfg;
  cfg.lb = LbPolicy::kEcmp;
  Switch sw(f.sim, f.log, 100, "sw", cfg, 1);
  SinkNode* x = f.sink(5);
  std::vector<std::uint32_t> ports;
  for (int i = 0; i < 4; ++i) {
    const auto p = sw.add_port(Bandwidth::gbps(100), 0);
    sw.connect(p, x, 0);
    sw.routes().add_route(5, p);
    ports.push_back(p);
  }
  // 64 flows x 4 packets: each flow hashes to one port, and the flows
  // between them cover every candidate.
  constexpr int kFlows = 64;
  constexpr int kPerFlow = 4;
  for (int fl = 0; fl < kFlows; ++fl) {
    for (int i = 0; i < kPerFlow; ++i) {
      Packet p = dcp_data(1, 5, static_cast<std::uint32_t>(i));
      p.flow = static_cast<FlowId>(fl);
      sw.receive(std::move(p), 0);
    }
  }
  f.sim.run();
  std::uint64_t total = 0;
  for (auto p : ports) {
    const std::uint64_t tx = sw.port(p).stats().tx_packets;
    EXPECT_EQ(tx % kPerFlow, 0u) << "a flow split across ports";
    EXPECT_GE(tx, static_cast<std::uint64_t>(kFlows * kPerFlow / 8)) << "port " << p;
    total += tx;
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kFlows * kPerFlow));
}

TEST(SwitchLb, AdaptiveRoutingPicksLeastLoaded) {
  SwitchFixture f;
  SwitchConfig cfg;
  cfg.lb = LbPolicy::kAdaptive;
  Switch sw(f.sim, f.log, 100, "sw", cfg, 1);
  SinkNode* x = f.sink(5);
  // Two candidate egress ports; one is slow so its queue backs up.
  const auto p0 = sw.add_port(Bandwidth::gbps(1), microseconds(1));
  const auto p1 = sw.add_port(Bandwidth::gbps(100), microseconds(1));
  sw.connect(p0, x, 0);
  sw.connect(p1, x, 0);
  sw.routes().add_route(5, p0);
  sw.routes().add_route(5, p1);

  // Spread arrivals at line rate so queues drain between decisions: the
  // slow port backs up after its first packets and AR steers to the fast
  // one.
  for (int i = 0; i < 200; ++i) {
    f.sim.schedule(i * 85 * kNanosecond,
                   [&sw, i] { sw.receive(dcp_data(1, 5, static_cast<std::uint32_t>(i)), 0); });
  }
  f.sim.run();
  // The fast port should carry the overwhelming majority.
  EXPECT_GT(sw.port(p1).stats().tx_packets, 150u);
}

TEST(SwitchTrim, DataTrimmedAboveThresholdIntoControlQueue) {
  SwitchFixture f;
  SwitchConfig cfg;
  cfg.trimming = true;
  cfg.trim_threshold_bytes = 3000;  // ~3 packets
  Switch sw(f.sim, f.log, 100, "sw", cfg, 1);
  SinkNode* x = f.sink(5);
  const auto p = sw.add_port(Bandwidth::gbps(1), microseconds(1));  // slow: queue builds
  sw.connect(p, x, 0);
  sw.routes().add_route(5, p);

  for (int i = 0; i < 10; ++i) sw.receive(dcp_data(1, 5, static_cast<std::uint32_t>(i)), 0);
  f.sim.run();
  EXPECT_GT(sw.stats().trimmed, 0u);
  EXPECT_EQ(sw.stats().dropped_data, 0u);  // trimmed, never dropped

  // Trimmed packets arrive as 57-byte header-only packets with tag 11.
  int ho = 0;
  for (const auto& a : x->arrivals) {
    if (a.type == PktType::kHeaderOnly) {
      ++ho;
      EXPECT_EQ(a.wire_bytes, HeaderSizes::kDcpHeaderOnly);
      EXPECT_EQ(a.tag, DcpTag::kHeaderOnly);
      EXPECT_EQ(a.payload_bytes, 0u);
    }
  }
  EXPECT_EQ(static_cast<std::uint64_t>(ho), sw.stats().trimmed);
  // All 10 packets reached the receiver in some form: exactly-once overall.
  EXPECT_EQ(x->arrivals.size(), 10u);
}

TEST(SwitchTrim, NonDcpAndAcksDroppedAboveThreshold) {
  SwitchFixture f;
  SwitchConfig cfg;
  cfg.trimming = true;
  cfg.trim_threshold_bytes = 2000;
  Switch sw(f.sim, f.log, 100, "sw", cfg, 1);
  SinkNode* x = f.sink(5);
  const auto p = sw.add_port(Bandwidth::gbps(1), microseconds(1));
  sw.connect(p, x, 0);
  sw.routes().add_route(5, p);

  for (int i = 0; i < 4; ++i) sw.receive(dcp_data(1, 5, static_cast<std::uint32_t>(i)), 0);
  Packet ack;
  ack.type = PktType::kAck;
  ack.tag = DcpTag::kAck;
  ack.src = 1;
  ack.dst = 5;
  ack.wire_bytes = 61;
  sw.receive(std::move(ack), 0);
  Packet nondcp = dcp_data(1, 5, 99);
  nondcp.tag = DcpTag::kNonDcp;
  sw.receive(std::move(nondcp), 0);
  f.sim.run();
  EXPECT_GE(sw.stats().dropped_ctrl, 1u);   // the ACK died
  EXPECT_GE(sw.stats().dropped_data, 1u);   // the non-DCP data died
}

TEST(SwitchTrim, HeaderOnlyAlwaysRidesControlQueue) {
  SwitchFixture f;
  SwitchConfig cfg;
  cfg.trimming = true;
  cfg.trim_threshold_bytes = 1;  // everything data-side is over threshold
  Switch sw(f.sim, f.log, 100, "sw", cfg, 1);
  SinkNode* x = f.sink(5);
  const auto p = sw.add_port(Bandwidth::gbps(100), 0);
  sw.connect(p, x, 0);
  sw.routes().add_route(5, p);

  Packet ho;
  ho.type = PktType::kHeaderOnly;
  ho.tag = DcpTag::kHeaderOnly;
  ho.src = 1;
  ho.dst = 5;
  ho.wire_bytes = HeaderSizes::kDcpHeaderOnly;
  ho.queue_class = QueueClass::kControl;
  sw.receive(std::move(ho), 0);
  f.sim.run();
  ASSERT_EQ(x->arrivals.size(), 1u);
  EXPECT_EQ(sw.stats().ho_seen, 1u);
  EXPECT_EQ(sw.stats().dropped_ho, 0u);
}

TEST(SwitchEcn, MarksAboveKmin) {
  SwitchFixture f;
  SwitchConfig cfg;
  cfg.ecn = true;
  cfg.ecn_kmin_bytes = 2000;
  cfg.ecn_kmax_bytes = 4000;
  cfg.ecn_pmax = 1.0;
  Switch sw(f.sim, f.log, 100, "sw", cfg, 1);
  SinkNode* x = f.sink(5);
  const auto p = sw.add_port(Bandwidth::gbps(1), microseconds(1));
  sw.connect(p, x, 0);
  sw.routes().add_route(5, p);
  for (int i = 0; i < 20; ++i) sw.receive(dcp_data(1, 5, static_cast<std::uint32_t>(i)), 0);
  f.sim.run();
  EXPECT_GT(sw.stats().ecn_marked, 0u);
  bool any_ce = false;
  for (const auto& a : x->arrivals) any_ce = any_ce || a.ecn_ce;
  EXPECT_TRUE(any_ce);
}

TEST(SwitchLoss, InjectionDropsNonDcpTrimsDcp) {
  SwitchFixture f;
  SwitchConfig cfg;
  cfg.inject_loss_rate = 1.0;  // every data packet
  cfg.trimming = true;
  Switch sw(f.sim, f.log, 100, "sw", cfg, 1);
  SinkNode* x = f.sink(5);
  const auto p = sw.add_port(Bandwidth::gbps(100), 0);
  sw.connect(p, x, 0);
  sw.routes().add_route(5, p);

  sw.receive(dcp_data(1, 5, 0), 0);  // DCP: trimmed
  Packet plain = dcp_data(1, 5, 1);
  plain.tag = DcpTag::kNonDcp;
  sw.receive(std::move(plain), 0);   // non-DCP: dropped
  f.sim.run();
  EXPECT_EQ(sw.stats().injected_trims, 1u);
  EXPECT_EQ(sw.stats().injected_drops, 1u);
  ASSERT_EQ(x->arrivals.size(), 1u);
  EXPECT_EQ(x->arrivals[0].type, PktType::kHeaderOnly);
}

TEST(SharedBufferTest, AllocReleaseAndCaps) {
  SharedBuffer b(1000, 2);
  EXPECT_TRUE(b.alloc(0, 0, 600));
  EXPECT_FALSE(b.alloc(1, 0, 600));  // would exceed capacity
  EXPECT_TRUE(b.alloc(1, 0, 400));
  EXPECT_EQ(b.used(), 1000u);
  b.release(0, 0, 600);
  EXPECT_EQ(b.used(), 400u);
  EXPECT_EQ(b.ingress_bytes(1, 0), 400u);
  EXPECT_EQ(b.max_used(), 1000u);
}

TEST(SharedBufferTest, PfcThresholdDecisions) {
  PfcConfig pfc;
  pfc.enabled = true;
  pfc.xoff_bytes = 500;
  pfc.xon_bytes = 300;
  SharedBuffer b(10'000, 1, pfc);
  b.alloc(0, 0, 600);
  EXPECT_TRUE(b.should_pause(0, 0));
  EXPECT_FALSE(b.should_resume(0, 0));
  b.release(0, 0, 400);
  EXPECT_FALSE(b.should_pause(0, 0));
  EXPECT_TRUE(b.should_resume(0, 0));
}

TEST(PfcThresholds, DerivationReservesHeadroom) {
  const auto pfc = derive_pfc_thresholds(
      32ull * 1024 * 1024,
      std::vector<std::pair<Bandwidth, Time>>(32, {Bandwidth::gbps(100), microseconds(1)}));
  EXPECT_TRUE(pfc.enabled);
  EXPECT_GT(pfc.xoff_bytes, 64u * 1024);
  EXPECT_LT(pfc.xon_bytes, pfc.xoff_bytes);
  // Long-haul ports shrink the usable share.
  const auto far = derive_pfc_thresholds(
      32ull * 1024 * 1024,
      std::vector<std::pair<Bandwidth, Time>>(32, {Bandwidth::gbps(100), microseconds(500)}));
  EXPECT_LT(far.xoff_bytes, pfc.xoff_bytes);
}

TEST(SwitchTrim, TrimPreservesHeaderFields) {
  SwitchFixture f;
  SwitchConfig cfg;
  cfg.trimming = true;
  cfg.trim_threshold_bytes = 1;
  Switch sw(f.sim, f.log, 100, "sw", cfg, 1);
  SinkNode* x = f.sink(5);
  const auto p = sw.add_port(Bandwidth::gbps(1), 0);  // slow: queue persists
  sw.connect(p, x, 0);
  sw.routes().add_route(5, p);

  // Packet 1 goes straight to the wire, packet 2 queues (queue was empty at
  // its check), packet 3 sees a non-empty queue over the 1-byte threshold
  // and is trimmed.
  for (std::uint32_t i = 0; i < 3; ++i) {
    Packet d = dcp_data(1, 5, 4242 + i);
    d.msn = 17;
    d.retry_no = 3;
    d.flow = 777;
    sw.receive(std::move(d), 0);
  }
  f.sim.run();
  ASSERT_EQ(x->arrivals.size(), 3u);
  const Packet* found = nullptr;
  for (const Packet& a : x->arrivals) {
    if (a.type == PktType::kHeaderOnly) found = &a;
  }
  ASSERT_NE(found, nullptr);
  const Packet& ho = *found;
  // Everything the sender needs for a precise retransmission survives.
  EXPECT_EQ(ho.psn, 4244u);
  EXPECT_EQ(ho.msn, 17u);
  EXPECT_EQ(ho.retry_no, 3);
  EXPECT_EQ(ho.flow, 777u);
  EXPECT_EQ(ho.src, 1u);
  EXPECT_EQ(ho.dst, 5u);
}

TEST(SwitchLb, SprayUsesAllPortsEvenly) {
  SwitchFixture f;
  SwitchConfig cfg;
  cfg.lb = LbPolicy::kSpray;
  Switch sw(f.sim, f.log, 100, "sw", cfg, 1);
  SinkNode* x = f.sink(5);
  std::vector<std::uint32_t> ports;
  for (int i = 0; i < 4; ++i) {
    const auto p = sw.add_port(Bandwidth::gbps(100), 0);
    sw.connect(p, x, 0);
    sw.routes().add_route(5, p);
    ports.push_back(p);
  }
  for (int i = 0; i < 800; ++i) {
    Packet p = dcp_data(1, 5, static_cast<std::uint32_t>(i));
    p.flow = 42;  // same flow: spraying ignores the hash
    sw.receive(std::move(p), 0);
  }
  f.sim.run();
  for (auto p : ports) {
    EXPECT_NEAR(static_cast<double>(sw.port(p).stats().tx_packets), 200.0, 60.0);
  }
}

TEST(SwitchEcn, NeverMarksBelowKmin) {
  SwitchFixture f;
  SwitchConfig cfg;
  cfg.ecn = true;
  cfg.ecn_kmin_bytes = 1'000'000;  // far above anything this test queues
  Switch sw(f.sim, f.log, 100, "sw", cfg, 1);
  SinkNode* x = f.sink(5);
  const auto p = sw.add_port(Bandwidth::gbps(100), 0);
  sw.connect(p, x, 0);
  sw.routes().add_route(5, p);
  for (int i = 0; i < 50; ++i) sw.receive(dcp_data(1, 5, static_cast<std::uint32_t>(i)), 0);
  f.sim.run();
  EXPECT_EQ(sw.stats().ecn_marked, 0u);
  for (const auto& a : x->arrivals) EXPECT_FALSE(a.ecn_ce);
}

TEST(SwitchPfc, PauseFrameFreezesOnlyPausedClass) {
  SwitchFixture f;
  SwitchConfig cfg;
  cfg.trimming = true;  // so control-queue traffic exists
  Switch sw(f.sim, f.log, 100, "sw", cfg, 1);
  SinkNode* x = f.sink(5);
  const auto p = sw.add_port(Bandwidth::gbps(100), microseconds(1));
  sw.connect(p, x, 0);
  sw.routes().add_route(5, p);

  // Pause the data class on the egress port via a PFC frame arriving on it.
  Packet pause;
  pause.type = PktType::kPfcPause;
  pause.pause_class = static_cast<std::uint8_t>(QueueClass::kData);
  sw.receive(std::move(pause), p);

  sw.receive(dcp_data(1, 5, 1), 0);  // data: frozen
  Packet ho;
  ho.type = PktType::kHeaderOnly;
  ho.tag = DcpTag::kHeaderOnly;
  ho.src = 1;
  ho.dst = 5;
  ho.wire_bytes = 57;
  ho.queue_class = QueueClass::kControl;
  sw.receive(std::move(ho), 0);      // control: flows through
  f.sim.run();
  ASSERT_EQ(x->arrivals.size(), 1u);
  EXPECT_EQ(x->arrivals[0].type, PktType::kHeaderOnly);

  Packet resume;
  resume.type = PktType::kPfcResume;
  resume.pause_class = static_cast<std::uint8_t>(QueueClass::kData);
  sw.receive(std::move(resume), p);
  f.sim.run();
  EXPECT_EQ(x->arrivals.size(), 2u);
}

/// An ECMP switch that trims DCP data and drops everything else at a 30%
/// injected loss rate, with four equal-cost ports toward host 5.
std::pair<std::unique_ptr<Switch>, SinkNode*> lossy_ecmp_switch(SwitchFixture& f) {
  SwitchConfig cfg;
  cfg.lb = LbPolicy::kEcmp;
  cfg.trimming = true;
  cfg.inject_loss_rate = 0.3;
  auto sw = std::make_unique<Switch>(f.sim, f.log, 100, "sw", cfg, /*seed=*/7);
  SinkNode* x = f.sink(5);
  for (int i = 0; i < 4; ++i) {
    const auto p = sw->add_port(Bandwidth::gbps(100), microseconds(1));
    sw->connect(p, x, 0);
    sw->routes().add_route(5, p);
  }
  return {std::move(sw), x};
}

/// Schedules packets [first, first + n) from `t0`, one every 200 ns (too
/// slow for any queue to build, so every loss is an injected-loss draw).
/// Odd packets are non-DCP, so draws both trim and drop.
void feed_lossy(SwitchFixture& f, Switch& sw, Time t0, int first, int n) {
  for (int i = first; i < first + n; ++i) {
    f.sim.schedule_at(t0 + (i - first) * 200 * kNanosecond, [&sw, i] {
      Packet p = dcp_data(1, 5, static_cast<std::uint32_t>(i));
      p.flow = static_cast<FlowId>(i % 8);
      if (i % 2 == 1) p.tag = DcpTag::kNonDcp;
      sw.receive(std::move(p), 0);
    });
  }
}

TEST(SwitchCheckpoint, EcmpLossDrawsSurviveRoundTrip) {
  // A switch restored from a mid-run checkpoint must make the same
  // injected-loss decisions as the switch that kept running: the image
  // carries the base RNG's position.
  SwitchFixture fa;
  auto [a, sink_a] = lossy_ecmp_switch(fa);
  feed_lossy(fa, *a, 0, 0, 100);
  fa.sim.run();
  const Time pause = fa.sim.now();
  const Switch::Stats at_pause = a->stats();
  ASSERT_GT(at_pause.injected_trims, 0u);
  ASSERT_GT(at_pause.injected_drops, 0u);

  std::vector<std::uint8_t> image;
  StateIO saver = StateIO::saver(image);
  a->checkpoint(saver);
  ASSERT_TRUE(saver.ok()) << saver.error();

  SwitchFixture fb;
  auto [b, sink_b] = lossy_ecmp_switch(fb);
  StateIO loader = StateIO::loader(image);
  b->checkpoint(loader);
  ASSERT_TRUE(loader.ok()) << loader.error();
  EXPECT_EQ(loader.bytes_consumed(), image.size());
  fb.sim.schedule_at(pause, [] {});  // bring the restored clock to the pause
  fb.sim.run();

  const std::size_t seen = sink_a->arrivals.size();
  feed_lossy(fa, *a, pause, 100, 200);
  feed_lossy(fb, *b, pause, 100, 200);
  fa.sim.run();
  fb.sim.run();

  const Switch::Stats& sa = a->stats();
  const Switch::Stats& sb = b->stats();
  EXPECT_GT(sa.injected_trims, at_pause.injected_trims);
  EXPECT_GT(sa.injected_drops, at_pause.injected_drops);
  EXPECT_EQ(sb.injected_trims, sa.injected_trims);
  EXPECT_EQ(sb.injected_drops, sa.injected_drops);
  EXPECT_EQ(sb.forwarded, sa.forwarded);
  EXPECT_EQ(sb.ho_seen, sa.ho_seen);
  ASSERT_EQ(sink_b->arrivals.size(), sink_a->arrivals.size() - seen);
  for (std::size_t i = 0; i < sink_b->arrivals.size(); ++i) {
    EXPECT_EQ(sink_b->arrivals[i].psn, sink_a->arrivals[seen + i].psn) << i;
    EXPECT_EQ(sink_b->arrivals[i].type, sink_a->arrivals[seen + i].type) << i;
  }
}

TEST(SwitchDispatch, ConcreteEndpointsCarryTheirKindTags) {
  // Channel::connect caches these tags: switches and hosts are delivered to
  // through their static receive_fast entries, custom nodes (test sinks,
  // tools) through the virtual Node::receive hop.
  SwitchFixture f;
  Switch sw(f.sim, f.log, 1, "sw", SwitchConfig{}, /*seed=*/1);
  Host h(f.sim, f.log, 2, "h", Bandwidth::gbps(100), microseconds(1));
  EXPECT_EQ(sw.kind(), NodeKind::kSwitch);
  EXPECT_EQ(h.kind(), NodeKind::kHost);
  EXPECT_EQ(f.sink(3)->kind(), NodeKind::kOther);
}

}  // namespace
}  // namespace dcp
