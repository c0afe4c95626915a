// Space-parallel sharding mechanics: the ShardGroup window/barrier
// coordinator, the shared setup sequence counter, provisional-sequence
// commitment and the cross-shard channel mailbox.  End-to-end digest
// equality against the serial path lives in test_shard_digest.cpp; this
// file pins down the moving parts in isolation.

#include <gtest/gtest.h>

#include <vector>

#include "net/channel.h"
#include "net/node.h"
#include "net/packet.h"
#include "sim/rng.h"
#include "sim/shard.h"
#include "sim/simulator.h"

namespace dcp {
namespace {

class SinkNode final : public Node {
 public:
  SinkNode(Simulator& sim, Logger& log, NodeId id = 0) : Node(sim, log, id, "sink") {}
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

Packet data_packet(std::uint32_t bytes, std::uint32_t psn = 0) {
  Packet p;
  p.type = PktType::kData;
  p.wire_bytes = bytes;
  p.payload_bytes = bytes;
  p.psn = psn;
  return p;
}

/// Runs windows until nothing at or below `cap` is pending — the way
/// Network's run loop drives the window entry.
void run_through(ShardGroup& g, Time cap) {
  while (g.next_time() <= cap) g.run_window(cap);
}

// ---------------------------------------------------------------------------
// Group basics
// ---------------------------------------------------------------------------

TEST(ShardGroup, SizeOneIsThePlainSerialPath) {
  ShardGroup g(1);
  EXPECT_EQ(g.size(), 1);
  EXPECT_FALSE(g.sharded());
  EXPECT_TRUE(g.idle());

  std::vector<Time> fired;
  g.sim(0).schedule_at(microseconds(3), [&] { fired.push_back(g.sim(0).now()); });
  g.sim(0).schedule_at(microseconds(1), [&] { fired.push_back(g.sim(0).now()); });
  // run_window on an unsharded group is just Simulator::run(cap).
  g.run_window(microseconds(10));
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], microseconds(1));
  EXPECT_EQ(fired[1], microseconds(3));
  EXPECT_EQ(g.events_processed(), 2u);
}

TEST(ShardGroup, SetupSequencesComeFromOneSharedCounter) {
  // Before any window runs, both shards must allocate from the same stream
  // so topology construction is bit-identical to a serial build.
  ShardGroup g(2);
  const std::uint64_t a = g.sim(0).alloc_event_seq();
  const std::uint64_t b = g.sim(1).alloc_event_seq();
  const std::uint64_t c = g.sim(0).alloc_event_seq();
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(c, b + 1);
}

TEST(ShardGroup, WindowBoundIsInclusiveAndStrict) {
  ShardGroup g(2);
  g.set_lookahead(microseconds(1));
  std::vector<int> fired0, fired1;
  g.sim(0).schedule_at(microseconds(2), [&] { fired0.push_back(2); });
  g.sim(0).schedule_at(microseconds(7), [&] { fired0.push_back(7); });
  g.sim(1).schedule_at(microseconds(2), [&] { fired1.push_back(2); });
  g.sim(1).schedule_at(microseconds(5), [&] { fired1.push_back(5); });

  EXPECT_EQ(g.next_time(), microseconds(2));
  // A window opens at the earliest pending event and spans one lookahead,
  // strictly: its bound (the returned frontier) is 2us + 1us - 1.
  EXPECT_EQ(g.run_window(microseconds(5)), microseconds(3) - 1);
  EXPECT_EQ(fired0, (std::vector<int>{2}));
  EXPECT_EQ(fired1, (std::vector<int>{2}));

  run_through(g, microseconds(5));  // inclusive: the t=5 event runs
  EXPECT_EQ(fired0, (std::vector<int>{2}));
  EXPECT_EQ(fired1, (std::vector<int>{2, 5}));
  EXPECT_EQ(g.next_time(), microseconds(7));

  run_through(g, microseconds(7));
  EXPECT_EQ(fired0, (std::vector<int>{2, 7}));
  EXPECT_TRUE(g.idle());
  EXPECT_EQ(g.events_processed(), 4u);
  EXPECT_EQ(g.max_now(), microseconds(7));
}

TEST(ShardGroup, EventsScheduledInsideAWindowRunInsideIt) {
  // A window event scheduling a follow-up still inside the bound must see
  // it fire in the same window (the queue keeps running to the bound).  The
  // lookahead covers the cap, so one window spans [1us, 3us].
  ShardGroup g(2);
  g.set_lookahead(microseconds(3));
  std::vector<Time> fired;
  g.sim(0).schedule_at(microseconds(1), [&] {
    g.sim(0).schedule_at(microseconds(2), [&] { fired.push_back(g.sim(0).now()); });
  });
  EXPECT_EQ(g.run_window(microseconds(3)), microseconds(3));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], microseconds(2));
  EXPECT_EQ(g.windows(), 1u);
}

TEST(ShardGroup, OneUniformBoundGovernsEveryShard) {
  // The bound comes from the globally earliest event, not from each
  // shard's own: shard 1's 2.4us event lies within one lookahead of its
  // own earliest (1.5us) but beyond the shared bound 1us + 1us - 1, so it
  // waits for the next window.
  ShardGroup g(2);
  g.set_lookahead(microseconds(1));
  std::vector<Time> fired1;
  g.sim(0).schedule_at(microseconds(1), [] {});
  g.sim(1).schedule_at(nanoseconds(1500), [&] { fired1.push_back(g.sim(1).now()); });
  g.sim(1).schedule_at(nanoseconds(2400), [&] { fired1.push_back(g.sim(1).now()); });

  EXPECT_EQ(g.run_window(microseconds(10)), microseconds(2) - 1);
  EXPECT_EQ(fired1, (std::vector<Time>{nanoseconds(1500)}));
  EXPECT_EQ(g.sim(1).now(), microseconds(2) - 1);  // ran to the shared bound
  EXPECT_EQ(g.next_time(), nanoseconds(2400));

  EXPECT_EQ(g.run_window(microseconds(10)), nanoseconds(2400) + microseconds(1) - 1);
  EXPECT_EQ(fired1, (std::vector<Time>{nanoseconds(1500), nanoseconds(2400)}));
  EXPECT_TRUE(g.idle());
}

TEST(ShardGroup, ShardsWithNothingDueStayParked) {
  // A shard with no event inside the bound is not dispatched: it runs
  // nothing and its clock stays put (a dispatched shard whose next event
  // lies beyond the bound would have its clock moved to the bound).
  ShardGroup g(2);
  g.set_lookahead(microseconds(1));
  int fired0 = 0;
  int fired1 = 0;
  g.sim(0).schedule_at(microseconds(1), [&] { ++fired0; });
  g.sim(1).schedule_at(microseconds(50), [&] { ++fired1; });

  EXPECT_EQ(g.run_window(microseconds(100)), microseconds(2) - 1);
  EXPECT_EQ(fired0, 1);
  EXPECT_EQ(fired1, 0);
  EXPECT_EQ(g.sim(1).now(), 0);
  EXPECT_EQ(g.sim(1).events_processed(), 0u);
  EXPECT_EQ(g.busy_ns(1), 0u);

  // The next window opens at shard 1's event, skipping the idle gap.
  EXPECT_EQ(g.run_window(microseconds(100)), microseconds(51) - 1);
  EXPECT_EQ(fired1, 1);
  EXPECT_EQ(g.sim(0).now(), microseconds(1));
  EXPECT_TRUE(g.idle());
  EXPECT_EQ(g.windows(), 2u);
}

// ---------------------------------------------------------------------------
// Cross-shard mailbox
// ---------------------------------------------------------------------------

struct CrossFixture {
  ShardGroup g{2};
  Logger log{LogLevel::kOff};
  SinkNode sink{g.sim(1), log};
  Channel ch{g.sim(0), Bandwidth::gbps(100), microseconds(1)};

  CrossFixture() {
    g.set_lookahead(microseconds(1));
    ch.connect(&sink, 4);
    ch.enable_shard_mode(&g.sim(1));
    g.add_cross_drain(0, [this](const SeqRemap& remap) { return ch.drain_cross(remap); });
  }
};

TEST(ShardCross, DeliversAcrossTheCutAtTheExactSerialInstant) {
  CrossFixture f;
  const Time ser = f.ch.serialization(1000);
  for (int i = 0; i < 3; ++i) {
    f.g.sim(0).schedule_at(i * ser, [&f, i, ser] {
      f.ch.deliver(data_packet(1000, static_cast<std::uint32_t>(i)), ser);
    });
  }
  // The sends run by 2 * ser; arrivals land strictly later (t + 1us).
  run_through(f.g, 2 * ser);
  EXPECT_TRUE(f.sink.arrivals.empty());
  EXPECT_EQ(f.ch.cross_pending(), 3u);

  run_through(f.g, 3 * ser + microseconds(1));
  ASSERT_EQ(f.sink.arrivals.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(f.sink.arrivals[static_cast<std::size_t>(i)].pkt.psn,
              static_cast<std::uint32_t>(i));
    EXPECT_EQ(f.sink.arrivals[static_cast<std::size_t>(i)].t, (i + 1) * ser + microseconds(1));
    EXPECT_EQ(f.sink.arrivals[static_cast<std::size_t>(i)].port, 4u);
  }
  EXPECT_EQ(f.ch.cross_pending(), 0u);
  EXPECT_EQ(f.ch.delivered_packets(), 3u);
}

TEST(ShardCross, SameInstantArrivalsKeepIssueOrder) {
  CrossFixture f;
  f.g.sim(0).schedule_at(0, [&f] {
    for (int i = 0; i < 4; ++i) {
      f.ch.deliver(data_packet(64, static_cast<std::uint32_t>(i)), 0);
    }
  });
  run_through(f.g, microseconds(1));
  ASSERT_EQ(f.sink.arrivals.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(f.sink.arrivals[static_cast<std::size_t>(i)].pkt.psn,
              static_cast<std::uint32_t>(i));
    EXPECT_EQ(f.sink.arrivals[static_cast<std::size_t>(i)].t, microseconds(1));
  }
  // One event per delivery on the destination shard — the same charge the
  // serial lane makes.
  EXPECT_EQ(f.g.sim(1).events_processed(), 4u);
}

TEST(ShardCross, ArrivalsCountOneEventEachOnTheDestinationShard) {
  CrossFixture f;
  const Time ser = f.ch.serialization(1000);
  f.g.sim(0).schedule_at(0, [&f, ser] { f.ch.deliver(data_packet(1000), ser); });
  run_through(f.g, 0);
  const std::uint64_t src_events = f.g.sim(0).events_processed();
  run_through(f.g, ser + microseconds(1));
  EXPECT_EQ(f.g.sim(0).events_processed(), src_events);  // nothing ran at the source
  EXPECT_EQ(f.g.sim(1).events_processed(), 1u);
}

TEST(ShardCross, DropInFlightCutKillsMailboxPackets) {
  CrossFixture f;
  f.ch.set_drop_in_flight_on_cut(true);
  f.g.sim(0).schedule_at(0, [&f] { f.ch.deliver(data_packet(256), 0); });
  // The cut happens after the send but before the arrival fires.
  f.g.sim(0).schedule_at(0, [&f] { f.ch.set_up(false); });
  run_through(f.g, microseconds(1));
  EXPECT_TRUE(f.sink.arrivals.empty());
  EXPECT_EQ(f.ch.in_flight_dropped(), 1u);
}

TEST(ShardCross, CorruptFaultKillsTheFrameOnTheDestinationShard) {
  // The corruption draw happens at hand-off on the source shard; the frame
  // still rides the mailbox and dies at the far end, on the destination
  // shard's arrival event.
  CrossFixture f;
  Rng rng(1);
  ChannelFault fault;
  fault.corrupt_rate = 1.0;
  fault.rng = &rng;
  f.ch.set_fault(&fault);
  f.g.sim(0).schedule_at(0, [&f] { f.ch.deliver(data_packet(256), 0); });
  run_through(f.g, microseconds(1));
  EXPECT_TRUE(f.sink.arrivals.empty());
  EXPECT_EQ(fault.corrupted, 1u);
  EXPECT_EQ(f.ch.delivered_packets(), 1u);
  EXPECT_EQ(f.g.sim(1).events_processed(), 1u);
  f.ch.set_fault(nullptr);
}

TEST(ShardCross, DropFaultDiscardsAtHandOffOnTheSourceShard) {
  // The drop draw happens at hand-off on the source shard: the frame never
  // enters the mailbox and the destination shard runs nothing.
  CrossFixture f;
  Rng rng(1);
  ChannelFault fault;
  fault.drop_rate = 1.0;
  fault.rng = &rng;
  f.ch.set_fault(&fault);
  f.g.sim(0).schedule_at(0, [&f] { f.ch.deliver(data_packet(256), 0); });
  run_through(f.g, microseconds(1));
  EXPECT_TRUE(f.sink.arrivals.empty());
  EXPECT_EQ(fault.dropped, 1u);
  EXPECT_EQ(f.ch.discarded_packets(), 1u);
  EXPECT_EQ(f.ch.delivered_packets(), 0u);
  EXPECT_EQ(f.g.cross_records(), 0u);
  EXPECT_EQ(f.g.sim(1).events_processed(), 0u);
  f.ch.set_fault(nullptr);
}

TEST(ShardCross, MailboxPressureShrinksTheWindowAndLightWindowsGrowItBack) {
  // More than 8192 cross-shard records in one window halve the effective
  // lookahead of the next; a window that moves fewer than 2048 restores it.
  CrossFixture f;
  constexpr int kBurst = 9000;
  f.g.sim(0).schedule_at(0, [&f] {
    for (int i = 0; i < kBurst; ++i) {
      f.ch.deliver(data_packet(64, static_cast<std::uint32_t>(i)), 0);
    }
  });
  EXPECT_EQ(f.g.run_window(microseconds(100)), microseconds(1) - 1);
  EXPECT_EQ(f.g.cross_records(), static_cast<std::uint64_t>(kBurst));

  // The burst lands at 1us; this window spans half a lookahead.
  EXPECT_EQ(f.g.run_window(microseconds(100)), microseconds(1) + microseconds(1) / 2 - 1);
  ASSERT_EQ(f.sink.arrivals.size(), static_cast<std::size_t>(kBurst));
  EXPECT_EQ(f.sink.arrivals.back().pkt.psn, static_cast<std::uint32_t>(kBurst - 1));

  // That window moved nothing across the cut: the full lookahead is back.
  f.g.sim(0).schedule_at(microseconds(10), [] {});
  EXPECT_EQ(f.g.run_window(microseconds(100)), microseconds(11) - 1);
  EXPECT_TRUE(f.g.idle());
}

TEST(ShardCross, MaxNowTracksTheLastExecutedEvent) {
  CrossFixture f;
  const Time ser = f.ch.serialization(500);
  f.g.sim(0).schedule_at(0, [&f, ser] { f.ch.deliver(data_packet(500), ser); });
  run_through(f.g, ser + microseconds(1));
  EXPECT_TRUE(f.g.idle());
  // The arrival on shard 1 is the globally last event.
  EXPECT_EQ(f.g.max_now(), ser + microseconds(1));
}

}  // namespace
}  // namespace dcp
