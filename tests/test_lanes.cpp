// The two-level scheduler: delivery lanes, deadline-class timers and far
// events must fire every logical event at the (t, seq) its own heap entry
// would have.  These tests pin down lane FIFO order, same-time coalescing,
// lazy dooming on mid-flight cuts, hand-off drop and far-end corruption,
// the lane's checkpoint section, the deadline heap's lazy extend/cancel
// and far-event ordering; end-to-end outputs are pinned by the golden
// corpus (test_golden.cpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/channel.h"
#include "net/node.h"
#include "net/packet.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"

namespace dcp {
namespace {

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

Packet data_packet(std::uint32_t bytes) {
  Packet p;
  p.type = PktType::kData;
  p.wire_bytes = bytes;
  p.payload_bytes = bytes;
  return p;
}

struct LaneFixture {
  Simulator sim;
  Logger log{LogLevel::kOff};
};

// ---------------------------------------------------------------------------
// Lane mechanics
// ---------------------------------------------------------------------------

TEST(Lane, BackToBackMtuOnSaturatedLink) {
  // The Channel::deliver precondition regression: a saturated 100 Gbps link
  // hands the wire one MTU packet exactly as the previous one finishes
  // serializing (extra == serialization, gap zero).  All three must arrive,
  // in order, spaced exactly one serialization time apart.
  LaneFixture f;
  SinkNode sink(f.sim, f.log);
  Channel ch(f.sim, Bandwidth::gbps(100), microseconds(1));
  ch.connect(&sink, 3);
  const Time ser = ch.serialization(1000);
  ASSERT_GT(ser, 0);

  for (int i = 0; i < 3; ++i) {
    f.sim.schedule_at(i * ser, [&ch, i] {
      Packet p = data_packet(1000);
      p.psn = static_cast<std::uint32_t>(i);
      ch.deliver(p, ch.serialization(1000));
    });
  }
  f.sim.run();

  ASSERT_EQ(sink.arrivals.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sink.arrivals[i].pkt.psn, static_cast<std::uint32_t>(i));
    EXPECT_EQ(sink.arrivals[i].t, (i + 1) * ser + microseconds(1));
    EXPECT_EQ(sink.arrivals[i].port, 3u);
  }
  EXPECT_EQ(ch.delivered_packets(), 3u);
  EXPECT_EQ(ch.lane_pending(), 0u);
}

TEST(Lane, HoldsFifoWithOnlyHeadInHeap) {
  LaneFixture f;
  SinkNode sink(f.sim, f.log);
  Channel ch(f.sim, Bandwidth::gbps(100), microseconds(5));
  ch.connect(&sink, 0);
  const Time ser = ch.serialization(1000);

  // Queue four packets up front (a port bursting into the wire): they park
  // in the lane, not the heap.
  for (int i = 0; i < 4; ++i) {
    Packet p = data_packet(1000);
    p.psn = static_cast<std::uint32_t>(i);
    ch.deliver(p, (i + 1) * ser);
  }
  EXPECT_EQ(ch.lane_pending(), 4u);

  f.sim.run();
  ASSERT_EQ(sink.arrivals.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sink.arrivals[i].pkt.psn, static_cast<std::uint32_t>(i));
    EXPECT_EQ(sink.arrivals[i].t, (i + 1) * ser + microseconds(5));
  }
}

TEST(Lane, SameTimeDeliveriesCoalesceInIssueOrder) {
  // Three deliveries landing at the same instant: arrivals keep issue
  // order, and the coalesced run still charges one event per delivery.
  LaneFixture f;
  SinkNode sink(f.sim, f.log);
  Channel ch(f.sim, Bandwidth::gbps(100), microseconds(1));
  ch.connect(&sink, 0);
  for (int i = 0; i < 3; ++i) {
    Packet p = data_packet(64);
    p.psn = static_cast<std::uint32_t>(i);
    ch.deliver(p, 0);  // all three arrive at exactly propagation time
  }
  f.sim.run();
  std::vector<std::uint32_t> psns;
  for (const auto& a : sink.arrivals) {
    EXPECT_EQ(a.t, microseconds(1));
    psns.push_back(a.pkt.psn);
  }
  EXPECT_EQ(psns, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(f.sim.events_processed(), 3u);
}

TEST(Lane, MidFlightCutDoomsLazily) {
  // Drop-in-flight cut: O(1) epoch bump, no heap surgery.  Parked records
  // are doomed lazily and account as in-flight losses when they surface.
  LaneFixture f;
  SinkNode sink(f.sim, f.log);
  Channel ch(f.sim, Bandwidth::gbps(100), microseconds(1));
  ch.connect(&sink, 0);
  ch.set_drop_in_flight_on_cut(true);
  const Time ser = ch.serialization(1000);

  ch.deliver(data_packet(1000), ser);
  ch.deliver(data_packet(1000), 2 * ser);
  ASSERT_EQ(ch.lane_pending(), 2u);
  ch.set_up(false);
  EXPECT_EQ(ch.lane_doomed_pending(), 2u);

  f.sim.run();
  EXPECT_TRUE(sink.arrivals.empty());
  // delivered_packets counts wire hand-off at deliver() time; the
  // mid-flight kills show up only as in_flight_dropped.
  EXPECT_EQ(ch.delivered_packets(), 2u);
  EXPECT_EQ(ch.in_flight_dropped(), 2u);
  EXPECT_EQ(ch.lane_pending(), 0u);
  EXPECT_EQ(ch.lane_doomed_pending(), 0u);
}

TEST(Lane, DefaultCutPolicyDeliversInFlight) {
  // PR 3's cut semantics through the lane path: without drop-in-flight the
  // photons past the cut still arrive; only subsequent traffic is lost.
  LaneFixture f;
  SinkNode sink(f.sim, f.log);
  Channel ch(f.sim, Bandwidth::gbps(100), microseconds(1));
  ch.connect(&sink, 0);

  ch.deliver(data_packet(1000), 0);  // on the wire...
  ch.set_up(false);                  // ...then the cut
  ch.deliver(data_packet(1000), 0);  // handed to a dead wire
  f.sim.run();
  EXPECT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(ch.delivered_packets(), 1u);
  EXPECT_EQ(ch.in_flight_dropped(), 0u);
  EXPECT_EQ(ch.discarded_packets(), 1u);
}

TEST(Lane, HandOffFaultsNeverEnterTheLane) {
  // Random drops and blackholes are decided at hand-off: the frame never
  // occupies the wire, so nothing parks in the lane and no arrival event
  // is ever charged.
  LaneFixture f;
  SinkNode sink(f.sim, f.log);
  Rng rng(1);
  ChannelFault fault;
  fault.rng = &rng;
  Channel ch(f.sim, Bandwidth::gbps(100), microseconds(1));
  ch.connect(&sink, 0);
  ch.set_fault(&fault);

  fault.drop_rate = 1.0;
  ch.deliver(data_packet(1000), 0);
  fault.drop_rate = 0.0;
  fault.blackhole_refs = 1;
  ch.deliver(data_packet(1000), 0);
  EXPECT_EQ(ch.lane_pending(), 0u);
  EXPECT_TRUE(f.sim.idle());

  f.sim.run();
  EXPECT_TRUE(sink.arrivals.empty());
  EXPECT_EQ(fault.dropped, 1u);
  EXPECT_EQ(fault.blackholed, 1u);
  EXPECT_EQ(ch.discarded_packets(), 2u);
  EXPECT_EQ(ch.delivered_packets(), 0u);
  EXPECT_EQ(f.sim.events_processed(), 0u);
}

TEST(Lane, CorruptFrameRidesTheLaneAndDiesOnArrival) {
  // Corruption is drawn at hand-off but takes effect at the far end: the
  // frame occupies the wire (counted delivered, parked in the lane, one
  // arrival event each) and then fails CRC instead of reaching the node.
  LaneFixture f;
  SinkNode sink(f.sim, f.log);
  Rng rng(1);
  ChannelFault fault;
  fault.corrupt_rate = 1.0;
  fault.rng = &rng;
  Channel ch(f.sim, Bandwidth::gbps(100), microseconds(1));
  ch.connect(&sink, 0);
  ch.set_fault(&fault);

  ch.deliver(data_packet(1000), 0);
  ch.deliver(data_packet(1000), 0);
  EXPECT_EQ(ch.lane_pending(), 2u);
  EXPECT_EQ(fault.corrupted, 0u);  // the CRC check happens on arrival

  f.sim.run();
  EXPECT_TRUE(sink.arrivals.empty());
  EXPECT_EQ(fault.corrupted, 2u);
  EXPECT_EQ(ch.delivered_packets(), 2u);
  EXPECT_EQ(ch.discarded_packets(), 0u);
  EXPECT_EQ(f.sim.events_processed(), 2u);
  EXPECT_EQ(f.sim.now(), microseconds(1));
}

TEST(Lane, CheckpointReparksRecordsWithTheirStamps) {
  // The channel's checkpoint section carries each parked record's (t, seq)
  // stamp, cut epoch and corrupt flag.  A fresh channel loaded from it
  // re-arms the head timer and delivers exactly what the original does,
  // and re-saving it reproduces the section byte for byte.
  LaneFixture a;
  SinkNode sink_a(a.sim, a.log);
  Rng rng(1);
  ChannelFault corrupt_all;
  corrupt_all.corrupt_rate = 1.0;
  corrupt_all.rng = &rng;
  Channel ch_a(a.sim, Bandwidth::gbps(100), microseconds(1));
  ch_a.connect(&sink_a, 2);
  const Time ser = ch_a.serialization(1000);
  for (int i = 0; i < 3; ++i) {
    Packet p = data_packet(1000);
    p.psn = static_cast<std::uint32_t>(i);
    ch_a.set_fault(i == 1 ? &corrupt_all : nullptr);  // psn 1 fails CRC
    ch_a.deliver(std::move(p), (i + 1) * ser);
  }
  ch_a.set_fault(nullptr);

  std::vector<std::uint8_t> image;
  StateIO saver = StateIO::saver(image);
  ch_a.checkpoint(saver);
  ASSERT_TRUE(saver.ok()) << saver.error();

  LaneFixture b;
  SinkNode sink_b(b.sim, b.log);
  Channel ch_b(b.sim, Bandwidth::gbps(100), microseconds(1));
  ch_b.connect(&sink_b, 2);
  StateIO loader = StateIO::loader(image);
  ch_b.checkpoint(loader);
  ASSERT_TRUE(loader.ok()) << loader.error();
  EXPECT_EQ(loader.bytes_consumed(), image.size());
  EXPECT_EQ(ch_b.lane_pending(), 3u);
  EXPECT_EQ(ch_b.delivered_packets(), 3u);

  std::vector<std::uint8_t> resaved;
  StateIO again = StateIO::saver(resaved);
  ch_b.checkpoint(again);
  ASSERT_TRUE(again.ok()) << again.error();
  EXPECT_EQ(resaved, image);

  a.sim.run();
  b.sim.run();
  ASSERT_EQ(sink_a.arrivals.size(), 2u);
  ASSERT_EQ(sink_b.arrivals.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(sink_b.arrivals[i].t, sink_a.arrivals[i].t);
    EXPECT_EQ(sink_b.arrivals[i].pkt.psn, sink_a.arrivals[i].pkt.psn);
    EXPECT_EQ(sink_b.arrivals[i].port, 2u);
  }
  EXPECT_EQ(sink_b.arrivals[0].pkt.psn, 0u);
  EXPECT_EQ(sink_b.arrivals[1].pkt.psn, 2u);
  EXPECT_EQ(sink_b.arrivals[1].t, 3 * ser + microseconds(1));
  EXPECT_EQ(b.sim.events_processed(), a.sim.events_processed());
  EXPECT_EQ(ch_b.lane_pending(), 0u);
}

// ---------------------------------------------------------------------------
// Deadline-class timers (the second-level heap)
// ---------------------------------------------------------------------------

TEST(DeadlineTimer, LazyExtendFiresOnceAtLatestDeadline) {
  Simulator sim;
  int fires = 0;
  Time fired_at = -1;
  Timer rto(sim, [&] {
    ++fires;
    fired_at = sim.now();
  });
  rto.arm_deadline(microseconds(10));
  // Per-ACK pushes: each re-arm extends the deadline; the parked entry goes
  // stale and must NOT fire at its old key.
  sim.schedule(microseconds(4), [&] { rto.arm_deadline(microseconds(10)); });
  sim.schedule(microseconds(8), [&] { rto.arm_deadline(microseconds(12)); });
  sim.run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(fired_at, microseconds(20));
}

TEST(DeadlineTimer, LazyCancelNeverFires) {
  Simulator sim;
  int fires = 0;
  Timer rto(sim, [&] { ++fires; });
  rto.arm_deadline(microseconds(10));
  EXPECT_TRUE(rto.pending());
  rto.cancel();
  EXPECT_FALSE(rto.pending());
  rto.cancel();  // double-cancel is harmless
  sim.run();
  EXPECT_EQ(fires, 0);
}

TEST(DeadlineTimer, ShrinkFiresAtTheEarlierDeadline) {
  Simulator sim;
  Time fired_at = -1;
  Timer rto(sim, [&] { fired_at = sim.now(); });
  rto.arm_deadline(microseconds(50));
  rto.arm_deadline(microseconds(5));  // deadline moves BACK: eager re-key
  sim.run();
  EXPECT_EQ(fired_at, microseconds(5));
}

TEST(DeadlineTimer, DestroyWhileStaleEntryParked) {
  Simulator sim;
  int other_fires = 0;
  Timer survivor(sim, [&] { ++other_fires; });
  survivor.arm_deadline(microseconds(30));
  {
    Timer doomed(sim, [] { FAIL() << "destroyed timer fired"; });
    doomed.arm_deadline(microseconds(10));
    doomed.arm_deadline(microseconds(20));  // parked entry now stale
  }  // destroyed with the stale entry still in the deadline heap
  sim.run();
  EXPECT_EQ(other_fires, 1);
}

TEST(DeadlineTimer, ReArmFromOwnCallbackKeepsRunning) {
  Simulator sim;
  int fires = 0;
  Timer* tp = nullptr;
  Timer self(sim, [&] {
    if (++fires < 3) tp->arm_deadline(microseconds(1));
  });
  tp = &self;
  self.arm_deadline(microseconds(1));
  sim.run();
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(self.pending());
}

TEST(DeadlineTimer, ExtendedDeadlineAndOneShotFireInKeyOrder) {
  // The RTO is stamped before a one-shot, then lazily extended to the
  // one-shot's instant while an earlier event keeps it off the top.  When
  // it surfaces it is re-keyed with its ORIGINAL sequence, so it still
  // fires first — re-keying must not draw a fresh sequence.
  Simulator sim;
  std::vector<char> order;
  sim.schedule(microseconds(5), [&] { order.push_back('e'); });
  Timer rto(sim, [&] { order.push_back('r'); });
  rto.arm_deadline(microseconds(10));
  sim.schedule(microseconds(20), [&] { order.push_back('o'); });
  rto.arm_deadline_at(microseconds(20));  // parked entry goes stale
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'e', 'r', 'o'}));
  EXPECT_EQ(sim.now(), microseconds(20));
}

TEST(DeadlineTimer, EqualTimeOrderAcrossHeapsFollowsAllocation) {
  // A main-heap event and a deadline entry at the same instant fire in
  // sequence-allocation order — the global (t, seq) merge is heap-blind.
  {
    Simulator sim;
    std::vector<char> order;
    sim.schedule(microseconds(10), [&] { order.push_back('a'); });  // seq first
    Timer t(sim, [&] { order.push_back('b'); });
    t.arm_deadline(microseconds(10));
    sim.run();
    EXPECT_EQ(order, (std::vector<char>{'a', 'b'}));
  }
  {
    Simulator sim;
    std::vector<char> order;
    Timer t(sim, [&] { order.push_back('b'); });
    t.arm_deadline(microseconds(10));  // seq first this time
    sim.schedule(microseconds(10), [&] { order.push_back('a'); });
    sim.run();
    EXPECT_EQ(order, (std::vector<char>{'b', 'a'}));
  }
}

// ---------------------------------------------------------------------------
// Far events (one-shots scheduled long before they fire, like flow starts)
// ---------------------------------------------------------------------------

TEST(FarEvents, InterleaveWithNearEventsInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(microseconds(20), [&] { order.push_back(2); });
  sim.schedule_at(microseconds(10), [&] { order.push_back(1); });
  sim.schedule_at(microseconds(30), [&] { order.push_back(4); });
  sim.schedule_at(microseconds(30), [&] { order.push_back(5); });  // later seq, same t
  sim.schedule_at(microseconds(25), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(FarEvents, CancelRemovesExactlyOnce) {
  Simulator sim;
  int fires = 0;
  const EventId id = sim.schedule_at(microseconds(10), [&] { ++fires; });
  const EventId keep = sim.schedule_at(microseconds(20), [&] { ++fires; });
  sim.cancel(id);
  sim.cancel(id);  // stale handle: no-op
  sim.run();
  EXPECT_EQ(fires, 1);
  sim.cancel(keep);  // cancel-after-fire: no-op (generation stamped)
}

TEST(FarEvents, CancelBelowTheTopNeverFiresAndRecyclesItsSlot) {
  EventQueue q;
  int fires = 0;
  q.push(10, [&] { ++fires; });
  const EventId doomed = q.push(20, [] { FAIL() << "cancelled one-shot fired"; });
  q.push(30, [&] { ++fires; });
  q.cancel(doomed);
  // Below the top the cancelled entry stays parked: it still counts in
  // size(), and the earliest pending time is untouched.
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.next_time(), 10);
  Time now = 0;
  ASSERT_TRUE(q.pop_and_run(now));  // t=10 fires; the dead entry surfaces and drops
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 30);
  while (q.pop_and_run(now)) {
  }
  EXPECT_EQ(fires, 2);
  EXPECT_TRUE(q.empty());

  // Churn: each round parks a far one-shot and cancels it below the top.
  // About 200 dead entries stay parked at any time; each must hand its
  // slot back when it surfaces, or the slab grows every round.
  for (int i = 1; i <= 64; ++i) q.push(now + i, [&] { ++fires; });
  const std::size_t plateau = q.slots_allocated();
  for (int round = 0; round < 20000; ++round) {
    const EventId far = q.push(now + 200, [] { FAIL() << "cancelled one-shot fired"; });
    q.push(now + 65, [&] { ++fires; });
    q.cancel(far);
    ASSERT_TRUE(q.pop_and_run(now));
  }
  EXPECT_EQ(q.slots_allocated(), plateau);
  EXPECT_EQ(fires, 2 + 20000);
}

TEST(FarEvents, OneShotMayCancelAndPushFromItsOwnCallback) {
  // A one-shot runs in its slot: its handle is stale once it starts, and
  // the slot is freed only after it returns, so a push from inside lands
  // in another slot and the running closure stays intact.
  EventQueue q;
  std::vector<int> order;
  EventId self = kInvalidEvent;
  EventId sibling = kInvalidEvent;
  EventId child = kInvalidEvent;
  self = q.push(10, [&, tag = 1] {
    child = q.push(10, [&] { order.push_back(3); });  // same instant, later seq
    q.cancel(self);     // own handle: a stale no-op
    q.cancel(sibling);  // still pending: cancelled
    order.push_back(tag);
  });
  sibling = q.push(20, [&] { order.push_back(2); });
  Time now = 0;
  while (q.pop_and_run(now)) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_NE(child & 0xFFFFFFFFull, self & 0xFFFFFFFFull);
  EXPECT_EQ(now, 10);
}

TEST(FarEvents, SlotRecyclesCleanlyIntoMainHeap) {
  // A one-shot's slot is recycled once it fires: round after round of a
  // far start plus a near event leaves nothing live behind.
  Simulator sim;
  int fires = 0;
  for (int round = 0; round < 100; ++round) {
    sim.schedule_at(sim.now() + microseconds(1), [&] { ++fires; });
    sim.schedule(microseconds(2), [&] { ++fires; });
    sim.run();
  }
  EXPECT_EQ(fires, 200);
  EXPECT_TRUE(sim.idle());
}

}  // namespace
}  // namespace dcp
