// Proves the acceptance criterion behind the event-core rewrite: the
// steady-state schedule -> fire path performs ZERO per-event heap
// allocations.  A counting global operator new is installed for this
// binary only (which is why this file is its own test executable and must
// not be merged into another).
//
// Method: warm each structure past its high-water mark first (slabs,
// heap vector, freelists all reach capacity), snapshot the allocation
// counter, churn, and assert the counter did not move.
//
// The same counter bounds the footprint: per-port state allocates nothing
// until used, so a k=16 fat-tree builds within a fixed byte budget.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "harness/scheme.h"
#include "net/channel.h"
#include "net/node.h"
#include "net/packet_pool.h"
#include "net/port.h"
#include "net/queue.h"
#include "sim/simulator.h"
#include "topo/fattree.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};  // requested, never decremented
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t a) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(a), n) == 0) return p;
  throw std::bad_alloc();
}
// Kept out of line: inlined, they show gcc a `new`-allocated pointer
// reaching a bare std::free, and it warns -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace dcp {
namespace {

TEST(EventAlloc, SteadyStateScheduleFireIsAllocationFree) {
  Simulator sim;
  // Warm-up: push the queue past the working depth so the slab and heap
  // vector reach their high-water marks, then drain.
  for (int i = 0; i < 2048; ++i) sim.schedule(i + 1, [] {});
  sim.run();

  std::uint64_t fired = 0;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 64; ++i) {
      sim.schedule(i + 1, [&fired] { ++fired; });
    }
    sim.run();
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(fired, 64'000u);
}

TEST(EventAlloc, ScheduleCancelChurnIsAllocationFree) {
  Simulator sim;
  for (int i = 0; i < 2048; ++i) sim.schedule(i + 1, [] {});
  sim.run();

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 10'000; ++round) {
    const EventId a = sim.schedule(5, [] {});
    sim.schedule(6, [] {});
    sim.cancel(a);
    sim.cancel(a);  // stale double-cancel rides along for free
    sim.run();
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
}

/// Echoes every packet straight back out over its own channel.
class PingPongNode final : public Node {
 public:
  PingPongNode(Simulator& sim, Logger& log, NodeId id) : Node(sim, log, id, "pingpong") {}
  using Node::receive;
  void receive(PacketPtr pkt, std::uint32_t) override {
    ++bounces;
    if (out != nullptr && bounces < limit) {
      out->deliver(std::move(pkt), 0);
    }
    // else: handle dies here, slot goes back to the pool
  }
  Channel* out = nullptr;
  std::uint64_t bounces = 0;
  std::uint64_t limit = 0;
};

TEST(EventAlloc, PooledPacketPingPongIsAllocationFree) {
  Simulator sim;
  Logger log(LogLevel::kOff);
  PingPongNode a(sim, log, 0), b(sim, log, 1);
  Channel ab(sim, Bandwidth::gbps(100), microseconds(1));
  Channel ba(sim, Bandwidth::gbps(100), microseconds(1));
  ab.connect(&b, 0);
  ba.connect(&a, 0);
  a.out = &ab;
  b.out = &ba;

  // Warm-up bounce: materializes pool slabs, event slab, channel closures.
  a.limit = b.limit = 100;
  ab.deliver(PacketPtr::make(), 0);
  sim.run();

  a.bounces = b.bounces = 0;
  a.limit = b.limit = 50'000;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  ab.deliver(PacketPtr::make(), 0);
  sim.run();
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(b.bounces, 50'000u);
}

TEST(EventAlloc, PacketPoolChurnIsAllocationFree) {
  {
    std::vector<PacketPtr> warm;
    for (int i = 0; i < 128; ++i) warm.push_back(PacketPtr::make());
  }
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100'000; ++i) {
    PacketPtr p = PacketPtr::make();
    p->psn = static_cast<std::uint32_t>(i);
    PacketPtr q = std::move(p);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
}

TEST(EventAlloc, PortForwardingASteadyStreamIsAllocationFree) {
  Simulator sim;
  Logger log(LogLevel::kOff);
  PingPongNode sink(sim, log, 1);  // no `out`: every packet dies here
  Port port(sim, Bandwidth::gbps(100), microseconds(1), {1.0, 4.0});
  port.connect(&sink, 0);
  Packet data;
  data.wire_bytes = 1000;
  Packet control = data;
  control.queue_class = QueueClass::kControl;
  // Bursts of eight, drained between bursts: each queue cycles through its
  // storage the way a switch port's does.
  auto stream = [&](int bursts) {
    for (int b = 0; b < bursts; ++b) {
      for (int i = 0; i < 8; ++i) port.enqueue(PacketPtr::make(i % 4 == 0 ? control : data));
      sim.run();
    }
  };
  stream(100);  // warm-up: pool slabs, event slab, lanes, queue storage

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  stream(500);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(sink.bounces, 600u * 8u);
}

TEST(EventAlloc, FifoQueueAllocatesNothingBeforeItsFirstPush) {
  PacketPtr warm = PacketPtr::make();  // the pool's first slab
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  {
    FifoQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
    q.push(std::move(warm));
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 1u);
  }
}

TEST(EventAlloc, FatTreeK16BuildFitsItsHeapBudget) {
  // 5,120 switch ports carry 10,240 egress queues, and no queue holds a
  // packet before the run starts.
  const SchemeSetup s = make_scheme(SchemeKind::kDcp);
  Simulator sim;
  Logger log(LogLevel::kOff);
  const std::uint64_t before = g_bytes.load(std::memory_order_relaxed);
  Network net(sim, log);
  FatTreeParams p;
  p.k = 16;
  p.sw = s.sw;
  build_fattree(net, p);
  apply_scheme(net, s);
  const std::uint64_t used = g_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_LE(used, 8ull << 20) << used << " bytes requested";
}

}  // namespace
}  // namespace dcp
