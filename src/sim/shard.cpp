#include "sim/shard.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "net/lane.h"
#include "net/packet_pool.h"

namespace dcp {

namespace {

inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Thread-local slab footprint of the calling shard's pools.  Must run on
/// the thread that owns the shard (pools are thread-local by design).
inline std::uint64_t local_pool_arena_bytes() {
  return PacketPool::local().arena_bytes() + LanePool::local().arena_bytes();
}

}  // namespace

ShardGroup::ShardGroup(int n) {
  assert(n >= 1);
  sims_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) sims_.push_back(std::make_unique<Simulator>());
  logs_.resize(sims_.size());
  committed_.resize(sims_.size());
  dispatch_.resize(sims_.size(), 0);
  if (sharded()) {
    // One sequence space: setup-phase allocations interleave across shard
    // queues exactly as a single serial queue would hand them out.
    for (auto& s : sims_) s->set_shared_seq(&global_seq_);
    slots_ = std::make_unique<WorkerSlot[]>(sims_.size() - 1);
  }
}

ShardGroup::~ShardGroup() {
  if (!workers_.empty()) {
    exit_.store(true, std::memory_order_relaxed);
    for (std::size_t w = 0; w + 1 < sims_.size(); ++w) {
      slots_[w].go.fetch_add(1, std::memory_order_seq_cst);
      slots_[w].go.notify_one();
    }
    for (std::thread& t : workers_) t.join();
  }
}

void ShardGroup::start_workers() {
  if (!workers_.empty() || !sharded()) return;
  workers_.reserve(sims_.size() - 1);
  for (std::size_t i = 1; i < sims_.size(); ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

void ShardGroup::worker_loop(std::size_t i) {
  WorkerSlot& slot = slots_[i - 1];
  std::uint64_t seen = 0;
  for (;;) {
    // Spin a short budget — barriers are usually microseconds apart — then
    // park on the go word's futex.  The sleeping flag is the Dekker half
    // of the wake protocol: the coordinator only pays the notify syscall
    // when it observes the worker asleep.
    std::uint64_t cur;
    int spins = 0;
    while ((cur = slot.go.load(std::memory_order_acquire)) == seen) {
      if (++spins >= kSpinBudget) {
        slot.sleeping.store(true, std::memory_order_seq_cst);
        while ((cur = slot.go.load(std::memory_order_seq_cst)) == seen) slot.go.wait(seen);
        slot.sleeping.store(false, std::memory_order_relaxed);
        break;
      }
    }
    seen = cur;
    if (exit_.load(std::memory_order_relaxed)) return;
    const std::uint64_t t0 = wall_ns();
    sims_[i]->run(bound_);
    slot.busy_ns += wall_ns() - t0;
    slot.arena_bytes = local_pool_arena_bytes();
    // seq_cst: publishes the window's writes AND orders the increment
    // against the coordinator's sleeping flag (either we see the flag and
    // notify, or the coordinator's later load sees the increment).
    done_count_.fetch_add(1, std::memory_order_seq_cst);
    if (coord_sleeping_.load(std::memory_order_seq_cst)) done_count_.notify_one();
  }
}

Time ShardGroup::next_time() const {
  Time t = kTimeInfinity;
  for (const auto& s : sims_) t = std::min(t, s->next_event_time());
  return t;
}

Time ShardGroup::max_now() const {
  Time t = 0;
  for (const auto& s : sims_) t = std::max(t, s->now());
  return t;
}

std::uint64_t ShardGroup::events_processed() const {
  std::uint64_t n = 0;
  for (const auto& s : sims_) n += s->events_processed();
  return n;
}

void ShardGroup::sync_now(Time t) {
  for (auto& s : sims_) s->sync_now(t);
}

std::uint64_t ShardGroup::busy_ns(int i) const {
  return i == 0 ? busy0_ns_ : slots_[static_cast<std::size_t>(i) - 1].busy_ns;
}

std::uint64_t ShardGroup::arena_bytes() const {
  // Shard 0's pools are this (the coordinator) thread's thread-locals;
  // worker pools were published to their slots at the last done barrier.
  std::uint64_t total = local_pool_arena_bytes();
  for (std::size_t w = 0; w + 1 < sims_.size(); ++w) total += slots_[w].arena_bytes;
  for (const auto& s : sims_) total += s->event_arena_bytes();
  return total;
}

Time ShardGroup::run_window(Time cap) {
  if (!sharded()) {
    sims_[0]->run(cap);
    return cap;
  }
  assert(lookahead_ > 0 && "set_lookahead() before sharded windows");
  start_workers();
  const std::size_t n = sims_.size();
  const Time ahead = std::max<Time>(1, lookahead_ >> window_shift_);

  // One uniform bound opening at the globally earliest pending event (see
  // the file header).  Per-shard bounds would let the earliest shard race
  // ahead and commit allocations past a slower shard's clock a window early; a
  // same-time tie against a slower shard's later-committed event then
  // breaks the wrong way.  Adaptivity lives in the window LENGTH (`ahead`,
  // shrunk under cross-shard pressure) and in dispatch: shards with nothing
  // due in the window stay parked on the futex and skip window entry, the
  // commit merge and mailbox drains.
  const Time min1 = next_time();
  bound_ = min1 >= cap ? cap : std::min(cap, min1 + ahead - 1);
  for (std::size_t i = 0; i < n; ++i) {
    dispatch_[i] = sims_[i]->next_event_time() <= bound_ ? 1 : 0;
  }
  run_marked_window();
  // Dispatched shards ran exactly to the bound and parked shards had
  // nothing below it, so every barrier effect this window is final.
  return bound_;
}

void ShardGroup::run_marked_window() {
  const std::size_t n = sims_.size();
  ++windows_;
  for (std::size_t i = 0; i < n; ++i) {
    if (dispatch_[i] == 0) continue;
    logs_[i].clear();
    sims_[i]->begin_shard_window(&logs_[i]);
  }
  int need = 0;
  done_count_.store(0, std::memory_order_relaxed);
  for (std::size_t i = 1; i < n; ++i) {
    if (dispatch_[i] == 0) continue;
    ++need;
    WorkerSlot& slot = slots_[i - 1];
    slot.go.fetch_add(1, std::memory_order_seq_cst);
    if (slot.sleeping.load(std::memory_order_seq_cst)) slot.go.notify_one();
  }
  if (dispatch_[0] != 0) {
    const std::uint64_t t0 = wall_ns();
    sims_[0]->run(bound_);
    busy0_ns_ += wall_ns() - t0;
  }
  if (need > 0) {
    int d;
    int spins = 0;
    while ((d = done_count_.load(std::memory_order_acquire)) != need) {
      if (++spins >= kSpinBudget) {
        coord_sleeping_.store(true, std::memory_order_seq_cst);
        while ((d = done_count_.load(std::memory_order_seq_cst)) != need) done_count_.wait(d);
        coord_sleeping_.store(false, std::memory_order_relaxed);
        break;
      }
    }
  }
  commit_window();
}

void ShardGroup::commit_window() {
  const std::size_t n = sims_.size();
  std::size_t remaining = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (dispatch_[i] == 0) {
      committed_[i].clear();
      logs_[i].clear();
      continue;
    }
    committed_[i].assign(logs_[i].size(), 0);
    remaining += logs_[i].size();
  }

  // K-way merge of the per-shard allocation logs into serial order.  Each
  // log is already sorted by (time, committed parent): time is the shard
  // clock (monotone within a window), and at equal times events execute —
  // and therefore allocate — in parent-sequence order.  A provisional
  // parent always resolves before it is needed: its own allocation sits at
  // a smaller index of the same log (it was drawn before the parent event
  // ran), so the head cursor has already committed it.  Ties across shards
  // are impossible — an event executes on exactly one shard, so a given
  // (time, parent) pair only ever heads one log.
  std::vector<std::size_t> head(n, 0);
  auto resolved_parent = [this](std::size_t s, const ShardSeqAlloc& a) {
    return (a.parent & EventQueue::kProvisionalSeq) != 0
               ? committed_[s][a.parent & ~EventQueue::kProvisionalSeq]
               : a.parent;
  };
  while (remaining > 0) {
    std::size_t best = n;
    Time bt = 0;
    std::uint64_t bp = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (head[i] >= logs_[i].size()) continue;
      const ShardSeqAlloc& a = logs_[i][head[i]];
      const std::uint64_t p = resolved_parent(i, a);
      if (best == n || a.t < bt || (a.t == bt && p < bp)) {
        best = i;
        bt = a.t;
        bp = p;
      }
    }
    committed_[best][head[best]++] = global_seq_++;
    --remaining;
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (dispatch_[i] == 0) continue;  // a parked shard took no stamp
    // Leave window mode, rewriting every provisional key still parked in
    // the shard's heaps, then commit the holders (lanes, outboxes, pending
    // lists) that took a stamp in this window.
    sims_[i]->end_shard_window(committed_[i], drains_);
  }
  // Cut-edge mailbox drains, only once every shard's heaps hold committed
  // keys (see the file header), with the window's cross-record total fed
  // back into the adaptive window size: heavy mailbox traffic means the
  // windows admitted more cross-shard skew than the merge absorbs cheaply
  // (shrink the effective lookahead); light windows grow it back.
  std::size_t cross = 0;
  for (StampHolder* h : drains_) cross += h->drain();
  drains_.clear();
  cross_records_ += cross;
  if (cross > kShrinkAt && window_shift_ < kMaxShift) {
    ++window_shift_;
  } else if (cross < kGrowAt && window_shift_ > 0) {
    --window_shift_;
  }
}

}  // namespace dcp
