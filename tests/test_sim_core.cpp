// Unit tests for the discrete-event engine: time math, event ordering,
// cancellation, and RNG determinism.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace dcp {
namespace {

TEST(Time, UnitConversions) {
  EXPECT_EQ(microseconds(1), 1'000'000);
  EXPECT_EQ(milliseconds(1), 1000 * microseconds(1));
  EXPECT_EQ(seconds(1), 1000 * milliseconds(1));
  EXPECT_DOUBLE_EQ(to_us(microseconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_ms(milliseconds(7)), 7.0);
}

TEST(Bandwidth, SerializationExactFor100G) {
  const Bandwidth b = Bandwidth::gbps(100);
  EXPECT_EQ(b.ps_per_byte, 80);
  EXPECT_EQ(b.serialize(1000), 80'000);  // 1 KB at 100G = 80 ns
  EXPECT_DOUBLE_EQ(b.as_gbps(), 100.0);
}

TEST(Bandwidth, SerializationExactFor400G) {
  const Bandwidth b = Bandwidth::gbps(400);
  EXPECT_EQ(b.ps_per_byte, 20);
}

TEST(EventQueue, FifoForSimultaneousEvents) {
  EventQueue q;
  std::vector<int> order;
  q.push(100, [&] { order.push_back(1); });
  q.push(100, [&] { order.push_back(2); });
  q.push(50, [&] { order.push_back(0); });
  Time now = 0;
  while (q.pop_and_run(now)) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(now, 100);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.push(10, [&] { fired += 1; });
  q.push(20, [&] { fired += 10; });
  q.cancel(a);
  Time now = 0;
  while (q.pop_and_run(now)) {
  }
  EXPECT_EQ(fired, 10);
}

TEST(EventQueue, CancelInvalidIdIsNoop) {
  EventQueue q;
  q.cancel(kInvalidEvent);
  q.cancel(12345);  // never scheduled
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DoubleCancelIsHarmless) {
  // Regression: with raw counter ids, cancelling twice could kill an
  // unrelated event that had reused the id's slot.  Generation-stamped
  // handles make the second cancel a provable no-op.
  EventQueue q;
  int fired = 0;
  const EventId a = q.push(10, [&] { fired += 1; });
  q.push(20, [&] { fired += 10; });
  q.cancel(a);
  q.cancel(a);  // stale: generation already bumped
  // New event reuses a's slot; the stale handle must not be able to touch it.
  q.push(30, [&] { fired += 100; });
  q.cancel(a);
  Time now = 0;
  while (q.pop_and_run(now)) {
  }
  EXPECT_EQ(fired, 110);
}

TEST(EventQueue, CancelAfterFireWithSlotReuse) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.push(10, [&] { fired += 1; });
  Time now = 0;
  ASSERT_TRUE(q.pop_and_run(now));  // a fires; its slot is recycled
  const EventId b = q.push(20, [&] { fired += 10; });  // reuses the slot
  EXPECT_NE(a, b);                                     // generation differs
  q.cancel(a);                                         // must not cancel b
  while (q.pop_and_run(now)) {
  }
  EXPECT_EQ(fired, 11);
}

TEST(EventQueue, CancelOwnIdInsideCallbackIsHarmless) {
  EventQueue q;
  int fired = 0;
  EventId self = kInvalidEvent;
  self = q.push(10, [&] {
    fired++;
    q.cancel(self);  // already fired: stale, no-op
  });
  q.push(20, [&] { fired += 10; });
  Time now = 0;
  while (q.pop_and_run(now)) {
  }
  EXPECT_EQ(fired, 11);
}

TEST(EventQueue, SlabStopsGrowingUnderChurn) {
  // Steady-state schedule/cancel/fire churn must recycle slots, not grow
  // the slab: capacity plateaus at the high-water mark (one 512 chunk).
  EventQueue q;
  Time now = 0;
  std::int64_t t = 0;
  for (int i = 0; i < 256; ++i) q.push(++t, [] {});
  const std::size_t plateau = q.slots_allocated();
  for (int i = 0; i < 100'000; ++i) {
    const EventId id = q.push(++t, [] {});
    if (i % 3 == 0) {
      q.cancel(id);
    } else {
      q.pop_and_run(now);
    }
  }
  EXPECT_EQ(q.slots_allocated(), plateau);
}

TEST(EventCallback, MoveOnlyCaptureAndHeapFallbackCounting) {
  // Small captures stay inline; captures beyond kInlineSize take the
  // (counted) heap path.  Move-only captures work in either case, which
  // std::function could not express.
  auto small_ptr = std::make_unique<int>(7);
  EventCallback small([p = std::move(small_ptr)] { (*p)++; });
  const std::uint64_t before = EventCallback::heap_fallback_count();
  struct Big {
    char bytes[96];
  };
  EventCallback big([b = Big{}] { (void)b; });
  EXPECT_EQ(EventCallback::heap_fallback_count(), before + 1);
  small();
  big();
  EventCallback moved = std::move(small);
  moved();
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 2);
}

TEST(Simulator, RunAdvancesTimeMonotonically) {
  Simulator sim;
  std::vector<Time> stamps;
  sim.schedule(microseconds(5), [&] { stamps.push_back(sim.now()); });
  sim.schedule(microseconds(1), [&] {
    stamps.push_back(sim.now());
    sim.schedule(microseconds(1), [&] { stamps.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_EQ(stamps[0], microseconds(1));
  EXPECT_EQ(stamps[1], microseconds(2));
  EXPECT_EQ(stamps[2], microseconds(5));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(microseconds(10), [&] { fired++; });
  sim.run(microseconds(5));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), microseconds(5));
  sim.run(microseconds(20));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, ScheduleAtInPastClampsToNow) {
  Simulator sim;
  sim.schedule(microseconds(3), [] {});
  sim.run();
  Time fired_at = -1;
  sim.schedule_at(microseconds(1), [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_EQ(fired_at, microseconds(3));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(7);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(42.0);
  EXPECT_NEAR(sum / n, 42.0, 1.5);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, Mix64SpreadsBits) {
  // Consecutive inputs should land in different buckets most of the time.
  int same = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    if (mix64(i) % 16 == mix64(i + 1) % 16) ++same;
  }
  EXPECT_LT(same, 200);
}

// ---------------------------------------------------------------------------
// Stress / property tests for the event engine
// ---------------------------------------------------------------------------

TEST(EventQueueStress, RandomizedOrderingProperty) {
  // 100k events with random times must fire in non-decreasing time order,
  // FIFO within equal timestamps.
  EventQueue q;
  Rng rng(11);
  struct Fired {
    Time t;
    std::uint64_t seq;
  };
  std::vector<Fired> fired;
  fired.reserve(100'000);
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    const Time t = rng.uniform_int(0, 1000);  // heavy collisions on purpose
    q.push(t, [&fired, t, i] { fired.push_back({t, i}); });
  }
  Time now = 0;
  while (q.pop_and_run(now)) {
  }
  ASSERT_EQ(fired.size(), 100'000u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_GE(fired[i].t, fired[i - 1].t);
    if (fired[i].t == fired[i - 1].t) {
      ASSERT_GT(fired[i].seq, fired[i - 1].seq);  // FIFO among equals
    }
  }
}

TEST(EventQueueStress, InterleavedCancellations) {
  EventQueue q;
  Rng rng(13);
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 10'000; ++i) {
    ids.push_back(q.push(rng.uniform_int(0, 5000), [&fired] { ++fired; }));
  }
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    q.cancel(ids[i]);
    ++cancelled;
  }
  Time now = 0;
  while (q.pop_and_run(now)) {
  }
  EXPECT_EQ(fired, 10'000 - cancelled);
}

TEST(SimulatorStress, NestedSchedulingKeepsOrder) {
  Simulator sim;
  std::vector<int> order;
  // Each event schedules a child at +1; children of earlier events must
  // still respect global time ordering.
  for (int i = 0; i < 100; ++i) {
    sim.schedule(i * 10, [&sim, &order, i] {
      order.push_back(i * 2);
      sim.schedule(1, [&order, i] { order.push_back(i * 2 + 1); });
    });
  }
  sim.run();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(2 * i)], 2 * i);
    EXPECT_EQ(order[static_cast<std::size_t>(2 * i + 1)], 2 * i + 1);
  }
}

TEST(BandwidthProperty, SerializationLinearityAcrossRates) {
  for (double g : {10.0, 25.0, 40.0, 100.0, 200.0, 400.0}) {
    const Bandwidth b = Bandwidth::gbps(g);
    EXPECT_EQ(b.serialize(2000), 2 * b.serialize(1000)) << g;
    EXPECT_EQ(b.serialize(0), 0) << g;
    EXPECT_NEAR(b.as_gbps(), g, g * 0.05) << g;  // integer ps/byte rounding
  }
}

}  // namespace
}  // namespace dcp
