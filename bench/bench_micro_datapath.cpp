// Microbenchmarks (google-benchmark) of the hot datapath structures: the
// three packet trackers, the retransmission queue, the event queue, and
// DWRR selection.  These quantify the software cost behind Fig. 7 /
// Table 3 on the host CPU (the simulator substrate's own speed).

#include <benchmark/benchmark.h>

#include "core/retransq.h"
#include "core/tracking.h"
#include "net/packet_pool.h"
#include "sim/event_queue.h"
#include "net/port.h"

namespace {

using namespace dcp;

void BM_BdpBitmapTracker(benchmark::State& state) {
  BdpBitmapTracker t(4096);
  std::uint32_t psn = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.on_packet(psn % 4096));
    ++psn;
  }
}
BENCHMARK(BM_BdpBitmapTracker);

void BM_LinkedChunkTracker(benchmark::State& state) {
  const auto degree = static_cast<std::uint32_t>(state.range(0));
  LinkedChunkTracker t(1 << 20);
  std::uint32_t head = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.on_packet(head + degree));
    ++head;
    t.advance_head(head);
  }
  state.SetLabel("ooo_degree=" + std::to_string(degree));
}
BENCHMARK(BM_LinkedChunkTracker)->Arg(0)->Arg(128)->Arg(448);

void BM_MessageCounterTracker(benchmark::State& state) {
  constexpr std::uint64_t kMsgBytes = std::uint64_t{kMtuPayload} << 14;
  MessageCounterTracker t(MessageLayout(kMsgBytes << 16, kMsgBytes), 8);
  std::uint32_t psn = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.on_packet(psn % (1u << 14)));
    ++psn;
  }
}
BENCHMARK(BM_MessageCounterTracker);

void BM_RetransQPushFetchPop(benchmark::State& state) {
  RetransQ q;
  std::uint32_t i = 0;
  for (auto _ : state) {
    q.push({0, i++});
    if (q.len() >= 16) {
      q.fetch_to_staging(16);
      while (!q.staging_empty()) benchmark::DoNotOptimize(q.pop_staged());
    }
  }
}
BENCHMARK(BM_RetransQPushFetchPop);

void BM_EventQueuePushPop(benchmark::State& state) {
  EventQueue q;
  Time now = 0;
  std::int64_t t = 0;
  for (auto _ : state) {
    q.push(++t, [] {});
    if (q.size() >= 1024) q.pop_and_run(now);
  }
}
BENCHMARK(BM_EventQueuePushPop);

// The timeout pattern: nearly every scheduled event is cancelled before it
// fires (retransmission timers on a healthy fabric).  Exercises the
// in-place O(log n) removal path.
void BM_EventQueueCancelHeavy(benchmark::State& state) {
  EventQueue q;
  Time now = 0;
  std::int64_t t = 0;
  std::vector<EventId> pending;
  pending.reserve(1024);
  std::size_t next_victim = 0;
  for (auto _ : state) {
    pending.push_back(q.push(++t, [] {}));
    if (pending.size() >= 1024) {
      // Cancel from the middle of the window (oldest ids already fired).
      q.cancel(pending[next_victim]);
      next_victim = (next_victim + 7) % pending.size();
      q.pop_and_run(now);
      if (pending.size() >= 4096) {
        pending.clear();
        next_victim = 0;
      }
    }
  }
}
BENCHMARK(BM_EventQueueCancelHeavy);

// Pooled packet churn: acquire, fill, move, release — the per-hop cost of
// the PacketPtr datapath vs copying 96-byte Packets by value.
void BM_PacketPool(benchmark::State& state) {
  std::uint32_t i = 0;
  for (auto _ : state) {
    PacketPtr p = PacketPtr::make();
    p->wire_bytes = 1000 + (i & 63);
    p->psn = i++;
    PacketPtr moved = std::move(p);
    benchmark::DoNotOptimize(moved->psn);
  }
}
BENCHMARK(BM_PacketPool);

void BM_DwrrSelect(benchmark::State& state) {
  DwrrPolicy policy({1.0, 4.0});
  PortQueues queues;
  Packet p;
  p.wire_bytes = 1000;
  for (int i = 0; i < 64; ++i) {
    queues[0].push(p);
    queues[1].push(p);
  }
  std::array<bool, kNumQueueClasses> paused{};
  for (auto _ : state) {
    const int c = policy.select(queues, paused);
    benchmark::DoNotOptimize(c);
    policy.charge(c, 1000);
    PacketPtr popped = queues[static_cast<std::size_t>(c)].pop();
    queues[static_cast<std::size_t>(c)].push(std::move(popped));
  }
}
BENCHMARK(BM_DwrrSelect);

}  // namespace

BENCHMARK_MAIN();
