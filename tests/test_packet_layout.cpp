// The packet record's layout contract and the slab pool that holds it.
//
// Layout: the fields a switch, port, queue or lane reads form a prefix of
// Packet that fits the first cache line of its 64-byte-aligned pool slot,
// and the record carries no padding.  net/packet.h and net/packet_pool.h
// check this at compile time; the tests below echo it at run time (so a
// change shows its actual sizes) and pin the pool round trip.
//
// Slab pool: every way a packet leaves a channel returns its packet slot
// and its lane record, and the pool's Stats count each acquire and release.
//
// Retire on thread exit: a shard worker's packets and lane records can
// outlive its thread, so a dying pool hands its slabs to a process-wide
// store instead of freeing them, and the next pool to grow reclaims them.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "net/channel.h"
#include "net/lane.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace dcp {
namespace {

TEST(PacketLayout, PerHopPrefixFitsTheSlotsFirstCacheLine) {
  EXPECT_EQ(sizeof(Packet), 96u);
  EXPECT_EQ(offsetof(Packet, op), kPerHopBytes);
  EXPECT_LE(kPerHopBytes, 64u);
  EXPECT_EQ(alignof(PacketPool::Slot), 64u);
  EXPECT_EQ(sizeof(PacketPool::Slot), 128u);
  EXPECT_EQ(sizeof(PacketPtr), sizeof(void*));
}

TEST(PacketLayout, PoolSlotsAreCacheLineAligned) {
  PacketPtr a = PacketPtr::make();
  PacketPtr b = PacketPtr::make();
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.get()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.get()) % 64, 0u);
}

TEST(PacketLayout, PoolRoundTripsEveryField) {
  Packet f;
  f.flow = 0x1234567890abcdefull;
  f.src = 5;
  f.dst = 9;
  f.wire_bytes = 1000;
  f.payload_bytes = 946;
  f.psn = 17;
  f.ack_psn = 16;
  f.path_id = 6;
  f.acct_in_port = 1;
  f.sport = 777;
  f.dport = 4792;
  f.type = PktType::kSack;
  f.tag = DcpTag::kAck;
  f.queue_class = QueueClass::kControl;
  f.pause_class = 1;
  f.ecn_capable = true;
  f.ecn_ce = true;
  f.op = RdmaOp::kSend;
  f.retry_no = 2;
  f.last_of_msg = true;
  f.last_of_flow = true;
  f.has_reth = true;
  f.is_retransmit = true;
  f.remote_addr = 0xdeadbeefcafef00dull;
  f.echo_ts = microseconds(3);
  f.sent_at = microseconds(7);
  f.msn = 3;
  f.ssn = 2;
  f.sack_psn = 15;
  f.emsn = 4;

  // Recycle a slot first, so the copy must overwrite a used record.
  Packet* used = nullptr;
  {
    PacketPtr old = PacketPtr::make();
    used = old.get();
  }
  PacketPtr p = PacketPtr::make(f);
  EXPECT_EQ(p.get(), used);
  EXPECT_EQ(std::memcmp(&f, p.get(), sizeof(Packet)), 0) << "the pooled copy lost a field";
  const Packet back = *p;
  EXPECT_EQ(std::memcmp(&f, &back, sizeof(Packet)), 0) << "the copy out lost a field";
}

TEST(PacketLayout, BlankMakeWipesARecycledSlot) {
  // A slot keeps its last occupant's bytes in the freelist; make() must
  // overwrite all of them, not just the fields a caller happens to set.
  Packet* used = nullptr;
  {
    PacketPtr old = PacketPtr::make();
    std::memset(static_cast<void*>(old.get()), 0xa5, sizeof(Packet));
    used = old.get();
  }
  PacketPtr p = PacketPtr::make();
  ASSERT_EQ(p.get(), used);
  const Packet fresh;
  EXPECT_EQ(std::memcmp(p.get(), &fresh, sizeof(Packet)), 0) << "a stale byte survived make()";
}

bool in_slab(const void* p, const void* base, std::size_t bytes) {
  const std::less<const void*> lt;
  const auto* b = static_cast<const unsigned char*>(base);
  return !lt(p, base) && lt(p, b + bytes);
}

TEST(SlabPool, SlotsOutliveTheirThreadAndAreReclaimedFirst) {
  constexpr std::size_t kN = 64;
  std::vector<Packet*> pkts;
  std::vector<LaneRecord*> lanes;
  std::size_t pkt_slots = 0;
  std::size_t lane_slots = 0;
  std::thread([&] {
    for (std::size_t i = 0; i < kN; ++i) {
      pkts.push_back(PacketPtr::make().release_raw());
      lanes.push_back(LanePool::local().acquire());
    }
    pkt_slots = PacketPool::local().stats().slots;
    lane_slots = LanePool::local().stats().slots;
  }).join();
  ASSERT_GT(pkt_slots, kN);
  ASSERT_GT(lane_slots, kN);

  // The worker and its pools are gone, but not their slabs: under ASan a
  // write through a slot of a freed slab is a heap-use-after-free.
  for (std::size_t i = 0; i < kN; ++i) {
    pkts[i]->psn = static_cast<std::uint32_t>(i);
    lanes[i]->seq = i;
    lanes[i]->pkt = pkts[i];
  }
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(lanes[i]->seq, i);
    EXPECT_EQ(lanes[i]->pkt->psn, i);
    PacketPtr::adopt(lanes[i]->pkt);  // the dying handle releases the slot here
    LanePool::local().release(lanes[i]);
  }

  // The worker's pools retired the slots they never handed out.  A new
  // thread's pools take exactly those, from the worker's slabs (handed out
  // lowest address first), instead of allocating slabs of their own.
  Packet* pkt = nullptr;
  LaneRecord* lane = nullptr;
  std::size_t new_pkt_slots = 0;
  std::size_t new_lane_slots = 0;
  std::thread([&] {
    pkt = PacketPool::local().acquire();
    lane = LanePool::local().acquire();
    new_pkt_slots = PacketPool::local().stats().slots;
    new_lane_slots = LanePool::local().stats().slots;
    PacketPool::local().release(pkt);
    LanePool::local().release(lane);
  }).join();
  EXPECT_EQ(new_pkt_slots, pkt_slots - kN);
  EXPECT_EQ(new_lane_slots, lane_slots - kN);
  EXPECT_TRUE(in_slab(pkt, pkts.front(), pkt_slots * sizeof(PacketPool::Slot)));
  EXPECT_TRUE(in_slab(lane, lanes.front(), lane_slots * sizeof(LanePool::Slot)));
}


/// Lets every arriving packet die, which recycles its slot.
class DroppingSink final : public Node {
 public:
  DroppingSink(Simulator& sim, Logger& log) : Node(sim, log, 0, "sink") {}
  using Node::receive;
  void receive(PacketPtr, std::uint32_t) override { ++received; }
  int received = 0;
};

TEST(SlabPool, EveryWayOutOfAChannelReturnsItsSlots) {
  const PacketPool::Stats pkt0 = PacketPool::local().stats();
  const LanePool::Stats lane0 = LanePool::local().stats();
  Simulator sim;
  Logger log(LogLevel::kOff);
  DroppingSink sink(sim, log);
  Rng rng(1);
  ChannelFault fault;
  fault.rng = &rng;
  Packet data;
  data.type = PktType::kData;
  data.wire_bytes = 1000;
  data.payload_bytes = 1000;
  {
    Channel ch(sim, Bandwidth::gbps(100), microseconds(1));
    ch.connect(&sink, 0);
    ch.set_fault(&fault);
    ch.set_drop_in_flight_on_cut(true);
    const Time ser = ch.serialization(1000);
    auto send4 = [&] {
      for (int i = 0; i < 4; ++i) ch.deliver(data, (i + 1) * ser);
    };

    send4();  // arrive at the sink
    fault.corrupt_rate = 1.0;
    send4();  // ride the lane, fail CRC on arrival
    fault.corrupt_rate = 0.0;
    fault.drop_rate = 1.0;
    send4();  // dropped at hand-off, never parked
    fault.drop_rate = 0.0;
    sim.run();
    send4();
    ch.set_up(false);  // doomed in flight
    sim.run();
    send4();  // handed to a dead wire
    ch.set_up(true);
    send4();  // still parked when the channel dies: its destructor drains them

    EXPECT_EQ(sink.received, 4);
    EXPECT_EQ(fault.corrupted, 4u);
    EXPECT_EQ(fault.dropped, 4u);
    EXPECT_EQ(ch.in_flight_dropped(), 4u);
    EXPECT_EQ(ch.discarded_packets(), 8u);
    EXPECT_EQ(ch.lane_pending(), 4u);
  }

  const PacketPool::Stats pkt1 = PacketPool::local().stats();
  const LanePool::Stats lane1 = LanePool::local().stats();
  EXPECT_EQ(pkt1.acquires - pkt0.acquires, 24u);
  EXPECT_EQ(pkt1.releases - pkt0.releases, 24u) << "a packet slot leaked";
  EXPECT_EQ(lane1.acquires - lane0.acquires, 16u);
  EXPECT_EQ(lane1.releases - lane0.releases, 16u) << "a lane record leaked";
}

TEST(SlabPool, StatsCountEveryAcquireAndRelease) {
  // A fresh thread's pool starts from zero, whatever other threads did.
  LanePool::Stats s0, s1, s2, s3;
  std::uint64_t arena = 0;
  std::thread([&] {
    LanePool& pool = LanePool::local();
    s0 = pool.stats();
    LaneRecord* a = pool.acquire();
    LaneRecord* b = pool.acquire();
    LaneRecord* c = pool.acquire();
    s1 = pool.stats();
    arena = pool.arena_bytes();
    pool.release(a);
    pool.release(b);
    s2 = pool.stats();
    pool.release(c);
    s3 = pool.stats();
  }).join();
  EXPECT_EQ(s0.acquires, 0u);
  EXPECT_EQ(s0.slots, 0u);
  EXPECT_EQ(s0.in_use, 0u);
  EXPECT_EQ(s1.acquires, 3u);
  EXPECT_EQ(s1.releases, 0u);
  EXPECT_EQ(s1.in_use, 3u);
  EXPECT_GE(s1.slots, 3u);
  EXPECT_EQ(arena, s1.slots * sizeof(LanePool::Slot));
  EXPECT_EQ(s2.releases, 2u);
  EXPECT_EQ(s2.in_use, 1u);
  EXPECT_EQ(s2.slots, s1.slots);
  EXPECT_EQ(s3.acquires, 3u);
  EXPECT_EQ(s3.releases, 3u);
  EXPECT_EQ(s3.in_use, 0u);
}

TEST(SlabPool, ForeignReleasesClampInUseAtZero) {
  // Shard teardown releases a dead worker's records into the coordinator's
  // freelist, which then holds more slots than its pool counts as its own.
  std::vector<LaneRecord*> foreign;
  std::thread([&] {
    for (int i = 0; i < 8; ++i) foreign.push_back(LanePool::local().acquire());
  }).join();
  LanePool::Stats s;
  std::thread([&] {
    LanePool& pool = LanePool::local();
    pool.release(pool.acquire());
    for (LaneRecord* r : foreign) pool.release(r);
    s = pool.stats();
  }).join();
  EXPECT_EQ(s.acquires, 1u);
  EXPECT_EQ(s.releases, 9u);
  EXPECT_EQ(s.in_use, 0u) << "in_use underflowed";
}

}  // namespace
}  // namespace dcp
