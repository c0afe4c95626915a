// Unit tests for the network primitives: packets, channels, the FIFO ring,
// queues, ports and the DWRR scheduler driving them.

#include <gtest/gtest.h>

#include <vector>

#include "net/channel.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/port.h"
#include "net/queue.h"
#include "sim/ring.h"
#include "switch/scheduler.h"

namespace dcp {
namespace {

/// Captures everything delivered to it.
class SinkNode final : public Node {
 public:
  SinkNode(Simulator& sim, Logger& log) : Node(sim, log, 0, "sink") {}
  using Node::receive;
  void receive(PacketPtr pkt, std::uint32_t in_port) override {
    arrivals.push_back({sim_.now(), std::move(*pkt), in_port});
  }
  struct Arrival {
    Time t;
    Packet pkt;
    std::uint32_t port;
  };
  std::vector<Arrival> arrivals;
};

Packet data_packet(std::uint32_t bytes, QueueClass cls = QueueClass::kData) {
  Packet p;
  p.type = PktType::kData;
  p.wire_bytes = bytes;
  p.payload_bytes = bytes;
  p.queue_class = cls;
  return p;
}

struct NetFixture {
  Simulator sim;
  Logger log{LogLevel::kOff};
};

TEST(PacketPool, HandleLifecycleAndReuse) {
  PacketPool& pool = PacketPool::local();
  const auto before = pool.stats();
  {
    PacketPtr p = PacketPtr::make();
    p->wire_bytes = 777;
    EXPECT_TRUE(static_cast<bool>(p));
    PacketPtr q = std::move(p);
    EXPECT_FALSE(static_cast<bool>(p));  // NOLINT(bugprone-use-after-move): moved-from is empty
    EXPECT_EQ(q->wire_bytes, 777u);
  }  // q's death returns the slot
  const auto after = pool.stats();
  EXPECT_EQ(after.acquires, before.acquires + 1);
  EXPECT_EQ(after.releases, before.releases + 1);
  EXPECT_EQ(after.in_use, before.in_use);
}

TEST(PacketPool, SlabStopsGrowingUnderChurn) {
  PacketPool& pool = PacketPool::local();
  // Warm up to working depth, then churn: capacity must plateau.
  {
    std::vector<PacketPtr> window;
    for (int i = 0; i < 64; ++i) window.push_back(PacketPtr::make());
  }
  const std::size_t plateau = pool.stats().slots;
  for (int i = 0; i < 10'000; ++i) {
    PacketPtr p = PacketPtr::make();
    p->psn = static_cast<std::uint32_t>(i);
    PacketPtr q = std::move(p);
    q.reset();
  }
  EXPECT_EQ(pool.stats().slots, plateau);
  EXPECT_EQ(pool.stats().in_use, 0u);
}

TEST(PacketPool, MakeFromValueCopiesFields) {
  Packet src;
  src.wire_bytes = 123;
  src.payload_bytes = 99;
  PacketPtr p = PacketPtr::make(src);
  EXPECT_EQ(p->wire_bytes, 123u);
  EXPECT_EQ(p->payload_bytes, 99u);
}

TEST(Packet, EcmpKeyStablePerFlowAndSensitiveToPath) {
  Packet a;
  a.src = 1;
  a.dst = 2;
  a.sport = 1000;
  a.flow = 7;
  Packet b = a;
  EXPECT_EQ(ecmp_key(a), ecmp_key(b));
  b.path_id = 3;
  EXPECT_NE(ecmp_key(a), ecmp_key(b));
  b = a;
  b.flow = 8;
  EXPECT_NE(ecmp_key(a), ecmp_key(b));
}

TEST(Packet, HeaderSizesMatchThePaper) {
  EXPECT_EQ(HeaderSizes::kDcpHeaderOnly, 57u);  // Fig. 4 footnote
  EXPECT_EQ(HeaderSizes::kRoceData, 54u);
  EXPECT_EQ(HeaderSizes::kDcpAck, 61u);
}

TEST(Channel, DeliveryAfterSerializationPlusPropagation) {
  NetFixture f;
  SinkNode sink(f.sim, f.log);
  Channel ch(f.sim, Bandwidth::gbps(100), microseconds(1));
  ch.connect(&sink, 3);
  ch.deliver(data_packet(1000), ch.serialization(1000));
  f.sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].t, microseconds(1) + 80 * 1000);
  EXPECT_EQ(sink.arrivals[0].port, 3u);
}

TEST(FifoQueue, ByteAccounting) {
  FifoQueue q;
  q.push(data_packet(100));
  q.push(data_packet(200));
  EXPECT_EQ(q.bytes(), 300u);
  EXPECT_EQ(q.packets(), 2u);
  PacketPtr p = q.pop();
  EXPECT_EQ(p->wire_bytes, 100u);
  EXPECT_EQ(q.bytes(), 200u);
  EXPECT_EQ(q.max_bytes_seen(), 300u);
}

std::vector<int> drain(Ring<int>& r) {
  std::vector<int> out;
  while (!r.empty()) {
    out.push_back(r.front());
    r.pop_front();
  }
  return out;
}

TEST(Ring, KeepsFifoOrderAcrossWraparound) {
  // Walk the head round the first allocation (8 slots) many times at a
  // depth below it.
  Ring<int> r;
  int next_in = 0;
  int next_out = 0;
  for (int i = 0; i < 5; ++i) r.push_back(next_in++);
  for (int step = 0; step < 100; ++step) {
    ASSERT_EQ(r.front(), next_out++);
    r.pop_front();
    r.push_back(next_in++);
  }
  EXPECT_EQ(r.size(), 5u);
  std::vector<int> want;
  for (int v = next_out; v < next_in; ++v) want.push_back(v);
  EXPECT_EQ(drain(r), want);
}

TEST(Ring, GrowsWhileTheHeadSitsMidBuffer) {
  Ring<int> r;
  for (int i = 0; i < 6; ++i) r.push_back(i);
  for (int i = 0; i < 4; ++i) r.pop_front();   // head mid-buffer: 4, 5
  for (int i = 6; i < 30; ++i) r.push_back(i);  // wraps, then doubles twice
  std::vector<int> want;
  for (int i = 4; i < 30; ++i) want.push_back(i);
  EXPECT_EQ(drain(r), want);
}

TEST(Ring, IterationFollowsFifoOrder) {
  // Checkpoints serialize queues by iterating them.
  Ring<int> r;
  for (int i = 0; i < 7; ++i) r.push_back(i);
  for (int i = 0; i < 5; ++i) r.pop_front();
  for (int i = 7; i < 12; ++i) r.push_back(i);  // 5..11, wrapped
  std::vector<int> seen;
  for (int x : r) seen.push_back(x);
  const Ring<int>& cr = r;
  std::vector<int> seen_const(cr.begin(), cr.end());
  const std::vector<int> want{5, 6, 7, 8, 9, 10, 11};
  EXPECT_EQ(seen, want);
  EXPECT_EQ(seen_const, want);
}

TEST(Ring, DestroyingANonEmptyRingReturnsItsPacketsToThePool) {
  PacketPool& pool = PacketPool::local();
  const std::size_t in_use = pool.stats().in_use;
  {
    Ring<PacketPtr> r;
    for (int i = 0; i < 20; ++i) r.push_back(PacketPtr::make());  // grows twice
    r.pop_front();
    EXPECT_EQ(pool.stats().in_use, in_use + 19);
  }
  EXPECT_EQ(pool.stats().in_use, in_use);
}

constexpr std::array<double, kNumQueueClasses> kEqualWeights{1.0, 1.0};

TEST(Port, ServesPacketsBackToBackAtLineRate) {
  NetFixture f;
  SinkNode sink(f.sim, f.log);
  Port port(f.sim, Bandwidth::gbps(100), 0, kEqualWeights);
  port.connect(&sink, 0);
  for (int i = 0; i < 3; ++i) port.enqueue(data_packet(1000));
  f.sim.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  // Serialization is 80 ns per packet; arrivals at 80/160/240 ns.
  EXPECT_EQ(sink.arrivals[0].t, 80 * kNanosecond);
  EXPECT_EQ(sink.arrivals[1].t, 160 * kNanosecond);
  EXPECT_EQ(sink.arrivals[2].t, 240 * kNanosecond);
}

TEST(Port, PauseBlocksAndResumeReleases) {
  NetFixture f;
  SinkNode sink(f.sim, f.log);
  Port port(f.sim, Bandwidth::gbps(100), 0, kEqualWeights);
  port.connect(&sink, 0);
  port.set_paused(static_cast<int>(QueueClass::kData), true);
  port.enqueue(data_packet(1000));
  f.sim.run();
  EXPECT_TRUE(sink.arrivals.empty());
  port.set_paused(static_cast<int>(QueueClass::kData), false);
  f.sim.run();
  EXPECT_EQ(sink.arrivals.size(), 1u);
}

TEST(Port, OnDequeueFiresForEveryTransmittedPacket) {
  NetFixture f;
  SinkNode sink(f.sim, f.log);
  Port port(f.sim, Bandwidth::gbps(100), 0, kEqualWeights);
  port.connect(&sink, 0);
  int dequeued = 0;
  port.set_dequeue_hook([](void* n, const Packet&) { ++*static_cast<int*>(n); }, &dequeued);
  for (int i = 0; i < 5; ++i) port.enqueue(data_packet(500));
  f.sim.run();
  EXPECT_EQ(dequeued, 5);
  EXPECT_EQ(port.stats().tx_packets, 5u);
  EXPECT_EQ(port.stats().tx_bytes, 2500u);
}

TEST(Dwrr, SplitsBandwidthByWeight) {
  NetFixture f;
  SinkNode sink(f.sim, f.log);
  // Control weighted 3x over data, equal packet sizes.
  Port port(f.sim, Bandwidth::gbps(100), 0, std::array<double, kNumQueueClasses>{1.0, 3.0});
  port.connect(&sink, 0);
  for (int i = 0; i < 400; ++i) {
    port.enqueue(data_packet(1000, QueueClass::kData));
    port.enqueue(data_packet(1000, QueueClass::kControl));
  }
  // Run long enough to serve ~200 packets.
  f.sim.run(200 * 80 * kNanosecond);
  int control = 0, data = 0;
  for (const auto& a : sink.arrivals) {
    (a.pkt.queue_class == QueueClass::kControl ? control : data)++;
  }
  ASSERT_GT(control + data, 100);
  const double ratio = static_cast<double>(control) / static_cast<double>(data);
  EXPECT_NEAR(ratio, 3.0, 0.5);
}

TEST(Dwrr, WorkConservingWhenOneQueueEmpty) {
  NetFixture f;
  SinkNode sink(f.sim, f.log);
  Port port(f.sim, Bandwidth::gbps(100), 0, std::array<double, kNumQueueClasses>{1.0, 8.0});
  port.connect(&sink, 0);
  for (int i = 0; i < 10; ++i) port.enqueue(data_packet(1000, QueueClass::kData));
  f.sim.run();
  // All data served despite the (empty) control queue's higher weight.
  EXPECT_EQ(sink.arrivals.size(), 10u);
  EXPECT_EQ(sink.arrivals.back().t, 10 * 80 * kNanosecond);
}

TEST(Wrr, PaperWeightFormula) {
  // w = (N-1)/(r-N+1); e.g. N=5, r=20 -> 4/16 = 0.25.
  EXPECT_NEAR(wrr_control_weight(5, 20.0), 0.25, 1e-9);
  // Degenerate regime r <= N-1 falls back.
  EXPECT_DOUBLE_EQ(wrr_control_weight(22, 19.0, 1.5), 1.5);
}

}  // namespace
}  // namespace dcp
