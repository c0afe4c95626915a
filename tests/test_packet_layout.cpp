// The hot/cold packet split's layout contract and its laziness guarantee.
//
// Layout: PacketHot is the per-hop record — it must stay exactly one
// cache line, with the fields the switch/port/lane path reads inside it
// and everything else banished to PacketCold.  The static_asserts here
// (and in net/packet.h) turn accidental growth into a build break; the
// runtime tests pin the pool's hot/cold pairing and the scatter/gather
// round-trip the flat Packet API is built on.
//
// Laziness: a packet that lives and dies in the fabric (switch hops,
// queues, lanes, drops) must never write its cold record — that is the
// point of the split.  packet_cold_init_count() counts lazy first-touch
// initializations on the calling thread, so the tests below prove make()
// stays hot-only and cold() initializes exactly once.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "net/channel.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/simulator.h"

namespace dcp {
namespace {

// ---------------------------------------------------------------------------
// Layout contract (compile-time: a violation fails the build, and these
// duplicate the header's asserts so the contract is test-visible too)
// ---------------------------------------------------------------------------

static_assert(sizeof(PacketHot) == 64, "PacketHot must stay one cache line");
static_assert(alignof(PacketHot) == 64, "PacketHot must be cache-line aligned");
static_assert(sizeof(PacketCold) == 56, "PacketCold grew — check field packing");
static_assert(sizeof(Packet) == 104, "Packet grew or picked up padding");
static_assert(sizeof(PacketPtr) == sizeof(void*), "the datapath handle must stay 8 bytes");

// The hot record must keep the classification fields the switch reads
// within the first half of its cache line (tag/type/queue_class are the
// per-hop branch inputs; flow/dst feed the route lookup and ECMP hash).
static_assert(offsetof(PacketHot, flow) == 0);
static_assert(offsetof(PacketHot, dst) < 32);
static_assert(offsetof(PacketHot, wire_bytes) < 32);
static_assert(offsetof(PacketHot, type) < 64);
static_assert(offsetof(PacketHot, cold_valid) < 64);

TEST(PacketLayout, HotRecordIsOneCacheLine) {
  // Runtime echo of the compile-time contract, so a layout change shows up
  // in test output (with the actual size) and not just as a build break.
  EXPECT_EQ(sizeof(PacketHot), 64u);
  EXPECT_EQ(alignof(PacketHot), 64u);
  EXPECT_EQ(sizeof(PacketCold), 56u);
  EXPECT_EQ(sizeof(Packet), 104u);
}

TEST(PacketLayout, PoolSlotsAreCacheLineAligned) {
  PacketPtr a = PacketPtr::make();
  PacketPtr b = PacketPtr::make();
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.get()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.get()) % 64, 0u);
}

TEST(PacketLayout, ColdPairingSurvivesRecycling) {
  // The hot->cold pairing is fixed at slab allocation and must survive any
  // number of acquire/release cycles — init_hot() preserves cold_slot.
  PacketHot* hot;
  PacketCold* cold;
  {
    PacketPtr p = PacketPtr::make();
    hot = p.get();
    cold = p->cold_slot;
    ASSERT_NE(cold, nullptr);
  }  // released
  for (int i = 0; i < 100; ++i) {
    PacketPtr p = PacketPtr::make();
    if (p.get() == hot) {
      EXPECT_EQ(p->cold_slot, cold) << "pairing changed on recycle " << i;
    }
    EXPECT_NE(p->cold_slot, nullptr);
  }
}

TEST(PacketLayout, ScatterGatherRoundTripsEveryField) {
  Packet f;
  f.flow = 0x1234567890abcdefull;
  f.remote_addr = 0xdeadbeefcafef00dull;
  f.echo_ts = microseconds(3);
  f.sent_at = microseconds(7);
  f.uid = 42;
  f.src = 5;
  f.dst = 9;
  f.wire_bytes = 1000;
  f.payload_bytes = 946;
  f.psn = 17;
  f.msn = 3;
  f.ssn = 2;
  f.ack_psn = 16;
  f.sack_psn = 15;
  f.emsn = 4;
  f.path_id = 6;
  f.acct_in_port = 1;
  f.sport = 777;
  f.dport = 4791;
  f.type = PktType::kSack;
  f.tag = DcpTag::kAck;
  f.op = RdmaOp::kSend;
  f.queue_class = QueueClass::kControl;
  f.pause_class = 1;
  f.retry_no = 2;
  f.last_of_msg = true;
  f.last_of_flow = true;
  f.has_reth = true;
  f.ecn_capable = true;
  f.ecn_ce = true;
  f.is_retransmit = true;

  PacketPtr p = PacketPtr::make(f);  // scatter
  const Packet g = Packet(*p);       // gather
  EXPECT_EQ(std::memcmp(&f, &g, sizeof(Packet)), 0)
      << "scatter/gather round-trip lost a field";
}

TEST(PacketLayout, UntouchedColdGathersAsDefaults) {
  // Gathering from a hot-only packet must yield a Packet whose cold-side
  // fields are defaults — without marking the cold record valid.
  PacketPtr p = PacketPtr::make();
  p->psn = 99;
  const Packet g = Packet(*p);
  const Packet fresh;
  EXPECT_EQ(g.psn, 99u);
  EXPECT_EQ(g.uid, fresh.uid);
  EXPECT_EQ(g.sent_at, fresh.sent_at);
  EXPECT_EQ(g.echo_ts, fresh.echo_ts);
  EXPECT_EQ(g.op, fresh.op);
  EXPECT_FALSE(p->cold_valid);
}

// ---------------------------------------------------------------------------
// Laziness: the fabric path never touches the cold record
// ---------------------------------------------------------------------------

class CountingSink final : public Node {
 public:
  CountingSink(Simulator& sim, Logger& log) : Node(sim, log, 0, "sink") {}
  using Node::receive;
  void receive(PacketPtr pkt, std::uint32_t) override {
    ++received;
    pkt.reset();
  }
  int received = 0;
};

TEST(PacketLazyCold, BlankMakeInitializesHotOnly) {
  const std::uint64_t before = packet_cold_init_count();
  for (int i = 0; i < 16; ++i) {
    PacketPtr p = PacketPtr::make();
    p->wire_bytes = 64;  // hot writes are free
  }
  EXPECT_EQ(packet_cold_init_count(), before);
}

TEST(PacketLazyCold, ColdAccessorInitializesExactlyOnce) {
  PacketPtr p = PacketPtr::make();
  const std::uint64_t before = packet_cold_init_count();
  PacketCold& c = p->cold();
  EXPECT_EQ(packet_cold_init_count(), before + 1);
  EXPECT_EQ(c.uid, 0u);  // first touch resets the recycled slab bytes
  c.uid = 7;
  EXPECT_EQ(&p->cold(), &c);                        // second touch: same record...
  EXPECT_EQ(packet_cold_init_count(), before + 1);  // ...no re-init
  EXPECT_EQ(p->cold().uid, 7u);                     // and no wiped state
}

TEST(PacketLazyCold, FabricLifecycleNeverTouchesCold) {
  // A blank packet pushed through the wire -> lane -> arrival -> drop
  // lifecycle stays hot-only end to end: zero lazy cold initializations.
  Simulator sim;
  Logger log(LogLevel::kOff);
  CountingSink sink(sim, log);
  Channel ch(sim, Bandwidth::gbps(100), microseconds(1));
  ch.connect(&sink, 0);
  const Time ser = ch.serialization(1000);

  const std::uint64_t before = packet_cold_init_count();
  for (int i = 0; i < 32; ++i) {
    PacketPtr p = PacketPtr::make();
    p->type = PktType::kData;
    p->wire_bytes = 1000;
    p->payload_bytes = 1000;
    ch.deliver(std::move(p), (i + 1) * ser);
  }
  sim.run();
  EXPECT_EQ(sink.received, 32);
  EXPECT_EQ(packet_cold_init_count(), before)
      << "the fabric path wrote a cold record it never needed";
}

}  // namespace
}  // namespace dcp
