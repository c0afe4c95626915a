#pragma once
// Space-parallel simulation: one Simulator (and so one EventQueue, packet
// pool and lane pool) per topology shard, advancing together in bounded
// time windows under conservative synchronization.
//
// Lookahead: with L = the minimum propagation delay over all cut (cross-
// shard) channels, a window bounded by min-next-event-time + L - 1 can be
// executed by every shard independently — any packet a shard emits across
// the cut arrives at send-time + L at the earliest, i.e. strictly after
// the window, so no shard can receive an event it should already have run.
//
// Adaptive windows (run_window): every window opens at the globally
// earliest pending event and runs ONE uniform bound on every shard,
// min(cap, earliest + A - 1), with A <= L an effective lookahead the group
// shrinks under cross-shard mailbox pressure and grows back when windows
// run light.  The bound must be uniform: commit_window() hands out
// committed sequences window by window, so serial (time, parent) order —
// the same-time tie-break — holds only if no shard allocates at a time
// another shard has yet to reach.  Shards with no event inside the bound
// are not dispatched at all (their worker stays parked), and the call
// returns the bound: every event at or below it has executed on every
// shard, so every barrier effect the window recorded is final (see
// Network::commit_window_effects).
//
// Determinism: all shards draw setup-phase tie-break sequences from ONE
// shared counter, so topology construction is bit-identical to the serial
// run.  During a window each EventQueue hands out provisional sequences
// and logs (alloc time, allocating event); at the barrier the coordinator
// K-way-merges the logs — ordered by (time, committed parent sequence),
// which IS the serial allocation order — and assigns dense global
// sequences continuing the shared counter.  Every sequence a serial run
// would have allocated gets the same value, so event interleavings, lane
// orders and digests are bit-identical to DCP_SHARDS=1 (proof sketch in
// docs/architecture.md, "Sharded simulation").
//
// Barrier commit (commit_window), on the coordinator with every shard
// parked: (1) the merge; (2) per dispatched shard, relabel the heaps and
// commit the stamp holders that shard's queue listed this window — each
// lane, outbox or pending list lists itself on its first provisional
// stamp, so the barrier's cost follows the window's traffic, not the
// topology's size; (3) the drains of the cut-edge outboxes that
// took records.  The drains must come last: each arms a destination inbox
// timer with a committed key, and a committed key inserted into a heap
// that still holds provisional keys sifts above them (provisional keys
// sort after every committed one), so the in-place relabel would leave
// the heap out of order.
//
// Threading: shard 0 runs on the caller's thread; shards 1..n-1 each get a
// dedicated worker pinned to their Simulator (keeping the thread-local
// pools coherent).  Dispatch uses one go-word per worker (bumped only
// when that shard has work) and a shared done counter; both sides spin a
// short budget and then block on the atomic's futex, with a Dekker-style
// sleeping flag so the common fast-barrier case never pays a wake
// syscall.  All handshakes are seq_cst, so everything a worker wrote in a
// window is visible to the coordinator at the barrier and vice versa.

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace dcp {

class ShardGroup {
 public:
  /// A group of `n` simulators sharing one sequence space.  n == 1 is the
  /// escape hatch: no shared counter, no windows, no worker threads — the
  /// single simulator behaves exactly like a stand-alone one.
  explicit ShardGroup(int n);
  ~ShardGroup();
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  int size() const { return static_cast<int>(sims_.size()); }
  bool sharded() const { return sims_.size() > 1; }
  Simulator& sim(int i) { return *sims_[static_cast<std::size_t>(i)]; }
  const Simulator& sim(int i) const { return *sims_[static_cast<std::size_t>(i)]; }

  /// Conservative lookahead (min cut-channel propagation); must be set
  /// (> 0) before the first run_window() of a sharded run.
  void set_lookahead(Time l) { lookahead_ = l; }
  Time lookahead() const { return lookahead_; }

  /// Earliest pending event over all shards (mailboxes are always empty
  /// between windows, so this is exact).
  Time next_time() const;
  bool idle() const { return next_time() == kTimeInfinity; }
  /// Latest shard clock — the global "last executed event" time when idle.
  Time max_now() const;
  std::uint64_t events_processed() const;
  /// Advances every shard's clock to a slice boundary (no events run).
  void sync_now(Time t);

  /// Runs one adaptive window (see file header) capped at `cap`: the
  /// shards with work inside the bound run to it (inclusive) in parallel,
  /// then the window commits — merge allocation logs -> committed
  /// sequences -> per shard, heap relabel and listed stamp holders ->
  /// cut-edge mailbox drains.  Returns the window's bound: every shard has
  /// executed everything at or below it.  An unsharded group just runs its
  /// simulator to `cap`.
  Time run_window(Time cap);

  // ---- Instrumentation (read between windows, coordinator thread) -------
  /// Windows committed.
  std::uint64_t windows() const { return windows_; }
  /// Wall nanoseconds shard `i` spent executing events inside windows —
  /// busy_ns / total wall is the shard's utilization.
  std::uint64_t busy_ns(int i) const;
  /// Total cross-shard mailbox records drained at barriers.
  std::uint64_t cross_records() const { return cross_records_; }
  /// Bytes held by every shard's slab arenas (packet, lane and event
  /// records).  Workers publish their thread-local pool footprints
  /// at each barrier; shard 0's pools are read directly, so this must be
  /// called on the coordinator thread.
  std::uint64_t arena_bytes() const;

 private:
  // One cache line per worker: the go word and sleep flag are the only
  // cross-thread hot state, and padding them apart keeps a worker's futex
  // spin from bouncing the line every other worker (and the coordinator)
  // writes.
  struct alignas(64) WorkerSlot {
    std::atomic<std::uint64_t> go{0};
    std::atomic<bool> sleeping{false};
    // Plain fields: written by the worker inside a window, read by the
    // coordinator after the done barrier (the done fetch_add publishes).
    std::uint64_t busy_ns = 0;
    std::uint64_t arena_bytes = 0;
  };

  void start_workers();
  void worker_loop(std::size_t i);
  /// Dispatches the marked shards to bound_, runs shard 0 inline, waits
  /// for the done barrier, then merges logs and drains mailboxes.
  void run_marked_window();
  void commit_window();

  std::vector<std::unique_ptr<Simulator>> sims_;
  Time lookahead_ = 0;
  std::uint64_t global_seq_ = 1;  // mirrors EventQueue's initial next_seq_
  std::vector<std::vector<ShardSeqAlloc>> logs_;
  std::vector<std::vector<std::uint64_t>> committed_;
  std::vector<StampHolder*> drains_;  // outboxes with records, this barrier

  // Window plan, coordinator-written before dispatch.
  Time bound_ = 0;
  std::vector<char> dispatch_;  // shard has work inside the bound

  // Adaptive state.
  int window_shift_ = 0;                  // effective lookahead = L >> shift
  static constexpr int kMaxShift = 4;
  static constexpr std::size_t kShrinkAt = 8192;  // cross records per window
  static constexpr std::size_t kGrowAt = 2048;
  std::uint64_t windows_ = 0;
  std::uint64_t cross_records_ = 0;
  std::uint64_t busy0_ns_ = 0;

  // Barrier state.
  static constexpr int kSpinBudget = 4096;
  std::vector<std::thread> workers_;
  std::unique_ptr<WorkerSlot[]> slots_;   // size() - 1 entries
  std::atomic<int> done_count_{0};
  std::atomic<bool> coord_sleeping_{false};
  std::atomic<bool> exit_{false};
};

}  // namespace dcp
