// Space-parallel sharding mechanics: the ShardGroup window/barrier
// coordinator, the shared setup sequence counter, provisional-sequence
// commitment (the stamp-holder list) and the cross-shard channel mailbox.
// End-to-end digest equality against the serial path lives in
// test_shard_digest.cpp; this file pins down the moving parts in isolation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
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

/// Firing order of a run: (time, id) per recorded event — a packet's psn,
/// or a negative marker for a non-packet event.
using Trace = std::vector<std::pair<Time, std::int64_t>>;

/// Appends each arrival's (time, psn) to a shared trace, so arrivals and
/// other events can be checked in one firing order.
class TraceSink final : public Node {
 public:
  TraceSink(Simulator& sim, Logger& log, Trace& trace)
      : Node(sim, log, 0, "trace"), trace_(trace) {}
  using Node::receive;
  void receive(PacketPtr pkt, std::uint32_t /*in_port*/) override {
    trace_.emplace_back(sim_.now(), pkt->psn);
  }

 private:
  Trace& trace_;
};

Packet data_packet(std::uint32_t bytes, std::uint32_t psn = 0) {
  Packet p;
  p.type = PktType::kData;
  p.wire_bytes = bytes;
  p.payload_bytes = bytes;
  p.psn = psn;
  return p;
}

/// A test-local stamp holder: keeps one stamp and counts the barriers
/// that commit it.
struct CountingHolder final : StampHolder {
  std::uint64_t stamp = 0;
  int commits = 0;
  bool commit_stamps(const SeqRemap& remap) override {
    stamp = remap(stamp);
    ++commits;
    return false;
  }
};

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
  CountingHolder holder;
  const std::uint64_t a = g.sim(0).alloc_event_seq(holder);
  const std::uint64_t b = g.sim(1).alloc_event_seq(holder);
  const std::uint64_t c = g.sim(0).alloc_event_seq(holder);
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
// Stamp holders: listed once per window, committed only at that barrier
// ---------------------------------------------------------------------------

/// Two logical shards allocate in each of four 1us windows, and the holder
/// takes one stamp, in the first.  An unsharded group maps both logical
/// shards onto its one simulator, so it runs the same events in the same
/// order.
void stamp_once_scenario(ShardGroup& g, CountingHolder& holder) {
  auto sim = [&g](int i) -> Simulator& { return g.sim(std::min(i, g.size() - 1)); };
  for (int k = 0; k < 4; ++k) {
    for (int i = 0; i < 2; ++i) {
      Simulator& s = sim(i);
      s.schedule_at(microseconds(k) + nanoseconds(100 * (i + 1)), [&s] { s.schedule(1, [] {}); });
    }
  }
  Simulator& s1 = sim(1);
  s1.schedule_at(nanoseconds(500), [&s1, &holder] { holder.stamp = s1.alloc_event_seq(holder); });
}

TEST(ShardGroup, AStampHolderIsCommittedOnlyAtTheBarrierOfItsWindow) {
  ShardGroup serial(1);
  CountingHolder serial_holder;
  stamp_once_scenario(serial, serial_holder);
  serial.run_window(microseconds(10));
  EXPECT_NE(serial_holder.stamp, 0u);
  EXPECT_EQ(serial_holder.commits, 0);  // an unsharded run lists nothing

  ShardGroup g(2);
  g.set_lookahead(microseconds(1));
  CountingHolder holder;
  stamp_once_scenario(g, holder);
  // The first window spans [100ns, 1.1us) and holds the stamp: its
  // barrier commits it to the value the serial run assigned.
  EXPECT_EQ(g.run_window(microseconds(10)), nanoseconds(1100) - 1);
  EXPECT_EQ(holder.commits, 1);
  EXPECT_EQ(holder.stamp, serial_holder.stamp);

  // Three more windows dispatch the holder's shard, and their barriers
  // never visit the holder.
  run_through(g, microseconds(10));
  EXPECT_EQ(g.windows(), 4u);
  EXPECT_GT(g.sim(1).events_processed(), 4u);
  EXPECT_EQ(holder.commits, 1);
  EXPECT_EQ(holder.stamp, serial_holder.stamp);
}

/// A same-shard lane whose 10us propagation spans many 1us windows, so its
/// records stay parked across barriers, with same-instant competitors
/// scheduled before and after the packets they tie with.  Builds on `s`,
/// calls `run`, and returns the firing order.
template <typename Run>
Trace parked_lane_trace(Simulator& s, Run run) {
  Logger log{LogLevel::kOff};
  Trace trace;
  TraceSink sink(s, log, trace);
  Channel ch(s, Bandwidth::gbps(100), microseconds(10));
  ch.connect(&sink, 0);
  Timer late(s, [&trace, &s] { trace.emplace_back(s.now(), -4); });
  auto send = [&ch](std::uint32_t psn, Time extra) { ch.deliver(data_packet(64, psn), extra); };
  auto mark_at = [&trace, &s](Time t, std::int64_t id) {
    s.schedule_at(t, [&trace, &s, id] { trace.emplace_back(s.now(), id); });
  };
  s.schedule_at(0, [&] { send(0, 0); });
  s.schedule_at(microseconds(1), [&] { mark_at(microseconds(12), -1); });
  s.schedule_at(microseconds(2), [&] {
    send(1, 0);
    send(2, 0);
  });
  s.schedule_at(microseconds(3), [&] {
    send(3, microseconds(2));
    mark_at(microseconds(12), -2);
  });
  s.schedule_at(nanoseconds(3500), [&] { send(4, 0); });  // lands before psn 3
  s.schedule_at(microseconds(5), [&] { mark_at(nanoseconds(13500), -3); });
  s.schedule_at(microseconds(6), [&] { late.arm_at(microseconds(15)); });
  run();
  return trace;
}

TEST(ShardGroup, LaneRecordsParkedAcrossBarriersFireInSerialOrder) {
  Simulator serial;
  const Trace want = parked_lane_trace(serial, [&serial] { serial.run(microseconds(20)); });
  // Each competitor fires on the side of its tie that its stamp's age
  // gives it; psn 2 and marker -2 only keep their order if psn 2's stamp,
  // parked behind psn 1 through several barriers, was committed.
  const Trace expected = {{microseconds(10), 0},  {microseconds(12), -1},
                          {microseconds(12), 1},  {microseconds(12), 2},
                          {microseconds(12), -2}, {nanoseconds(13500), 4},
                          {nanoseconds(13500), -3}, {microseconds(15), 3},
                          {microseconds(15), -4}};
  EXPECT_EQ(want, expected);

  ShardGroup g(2);
  g.set_lookahead(microseconds(1));
  const Trace got = parked_lane_trace(g.sim(0), [&g] { run_through(g, microseconds(20)); });
  EXPECT_EQ(got, want);
  EXPECT_GE(g.windows(), 10u);
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
    ch.make_cut_edge(g.sim(1));
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

/// Shard 1 (the destination) arms a persistent main-heap timer for T
/// early in a window; later in the same window shard 0 sends a cut-edge
/// packet that also arrives at T.  Returns the arrivals seen when the timer
/// fired and the arrival's time.  `shards` == 1 runs it unsharded.
std::pair<std::size_t, Time> timer_vs_cut_arrival(int shards) {
  ShardGroup g(shards);
  g.set_lookahead(microseconds(1));
  Logger log{LogLevel::kOff};
  Simulator& dst = g.sim(shards - 1);
  SinkNode sink(dst, log);
  Channel ch(g.sim(0), Bandwidth::gbps(100), microseconds(1));
  ch.connect(&sink, 0);
  if (shards > 1) ch.make_cut_edge(dst);
  const Time t = microseconds(1) + nanoseconds(100);
  std::size_t seen_by_timer = SIZE_MAX;
  Timer timer(dst, [&] { seen_by_timer = sink.arrivals.size(); });
  dst.schedule_at(0, [&timer, t] { timer.arm_at(t); });
  g.sim(0).schedule_at(nanoseconds(100), [&ch] { ch.deliver(data_packet(64), 0); });
  run_through(g, microseconds(5));
  EXPECT_EQ(sink.arrivals.size(), 1u);
  return {seen_by_timer, sink.arrivals.empty() ? -1 : sink.arrivals[0].t};
}

TEST(ShardCross, DrainsRunAfterTheDestinationHeapIsRelabeled) {
  // The timer's key was allocated first, so it fires first.  A drain run
  // before shard 1's relabel would insert the arrival's committed key
  // above the timer's still-provisional one, and the relabel would leave
  // the arrival at the heap root.
  const auto serial = timer_vs_cut_arrival(1);
  EXPECT_EQ(serial.first, 0u);
  EXPECT_EQ(serial.second, microseconds(1) + nanoseconds(100));
  EXPECT_EQ(timer_vs_cut_arrival(2), serial);
}

}  // namespace
}  // namespace dcp
