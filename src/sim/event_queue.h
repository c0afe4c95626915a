#pragma once
// The allocation-free event queue at the bottom of every simulation.
//
// Design (rebuilt for throughput — see docs/architecture.md, "Simulator
// core performance model" and "Two-level scheduler"):
//
//   * Callbacks live in a chunked slab with a freelist.  Slots are
//     recycled, never freed, so the steady-state schedule->fire path does
//     not touch the allocator.  Chunks are stable in memory (no callback
//     ever moves), which lets the heap refer to events by 32-bit slot
//     index.
//   * Callbacks are EventCallback (small-buffer optimized, move-only) —
//     no per-event std::function heap allocation.
//   * Ordering uses TWO 4-ary min-heaps sharing one global (time,
//     sequence) key space, so the merged firing order is exactly that of a
//     single heap:
//       - heap_  : persistent timers (index-tracked via a flat per-slot
//         position array, so timer_cancel / re-arm removes an entry in
//         place in O(log n)).  Lane heads and port serialization timers
//         live here, so it stays O(active links) deep.
//       - dheap_ : entries that wait long and are rarely touched before
//         they fire — DEADLINE-class timers (retransmission timeouts,
//         keepalives, re-armed far more often than they fire) and ONE-SHOT
//         events (push(): flow starts, fault actions).  Each entry's true
//         firing time is stored beside its slot.  Pushing a deadline
//         forward is O(1): the parked entry goes stale.  Cancelling a
//         deadline timer or a one-shot is O(1): the true time becomes
//         "never".  Stale entries are re-keyed (keeping their original
//         sequence) or dropped — a dropped one-shot's slot recycled — only
//         when they surface at this heap's top.
//     The sequence number preserves FIFO order among simultaneous events;
//     each heap's top is kept accurate so next_time() stays O(1).
//   * EventIds are generation-stamped handles: (generation << 32) | slot+1.
//     Firing or cancelling a slot bumps its generation, so double-cancel
//     and cancel-after-fire are provably harmless no-ops — a stale handle
//     can never hit a recycled slot.
//   * Two-level scheduling support: components that own a naturally
//     ordered stream of events (a Channel's delivery lane, a periodic
//     timer) keep only ONE entry in the heap.  alloc_seq()/timer_arm_keyed()
//     let them stamp each logical event with a global sequence number at
//     creation and enter the heap with that exact (time, seq) key later,
//     so the merged firing order is identical to scheduling every logical
//     event individually.  Persistent timer slots (timer_create /
//     timer_arm / timer_cancel) hold their callback across fires: arming
//     again after a fire is a heap insert only — no slot churn, no
//     callback reconstruction.
//   * Space-parallel sharding support: a sharded run (sim/shard.h) gives
//     every shard its own EventQueue but ONE logical sequence space.  In
//     the single-threaded setup phase all queues draw from a shared
//     counter; during a parallel window each queue hands out provisional
//     high-bit-flagged sequences and logs (allocation time, allocating
//     event) per draw, and the window barrier merges the per-shard logs
//     into the exact sequence numbers the serial run would have assigned
//     (ShardGroup::commit_window).  A component that keeps a stamp outside
//     the heaps (a StampHolder) is listed once per window when it takes a
//     provisional one, so end_shard_window commits exactly the listed
//     holders.  Unsharded runs pay one predictable branch per allocation.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_callback.h"
#include "sim/time.h"

namespace dcp {

/// Handle for a scheduled event; used to cancel it.  Encodes the slot and
/// its generation so stale handles are always detected.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// One provisional sequence allocation inside a shard window: when it was
/// drawn and the (global or provisional) sequence of the event that drew
/// it.  The log index doubles as the provisional id.
struct ShardSeqAlloc {
  Time t;
  std::uint64_t parent;
};

struct SeqRemap;

/// A component that keeps tie-break stamps outside the event heaps: a
/// channel's lane records or cut-edge outbox, a network's pending window
/// effects.  It takes every stamp through EventQueue::alloc_seq(holder) or
/// current_event_seq(holder); in a shard window the first provisional
/// stamp lists the holder on that queue, and the window barrier commits
/// exactly the listed holders (see sim/shard.h).  Outside windows nothing
/// is listed.
class StampHolder {
 public:
  /// Barrier: rewrites every provisional stamp held with its committed
  /// value.  Returns true when the holder also has a drain to run once
  /// every shard's heaps hold committed keys (a cut edge's outbox).
  virtual bool commit_stamps(const SeqRemap& remap) = 0;
  /// Barrier, after every dispatched shard's commit: hands committed
  /// records to another shard.  Returns the number of records moved.
  virtual std::size_t drain() { return 0; }

 protected:
  ~StampHolder() = default;

 private:
  friend class EventQueue;
  bool listed_ = false;  // on a queue's holder list for the current window
};

class EventQueue {
 public:
  /// Provisional sequences handed out during a shard window carry this
  /// flag; they compare AFTER every committed sequence at the same time,
  /// which is exactly the serial order (anything allocated in an earlier
  /// window was allocated at an earlier simulated time).
  static constexpr std::uint64_t kProvisionalSeq = 1ull << 63;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` to fire at absolute time `t`.  Events scheduled for the
  /// same instant fire in the order they were scheduled.  Templated on the
  /// callable so the closure is constructed directly in its slab slot —
  /// passing a prebuilt EventCallback still works (one move), but a lambda
  /// at the call site skips the temporary + relocate entirely.  The entry
  /// parks in the deadline heap with its true time equal to its key.
  template <typename F>
  EventId push(Time t, F&& fn) {
    const std::uint64_t seq = take_seq();
    const std::uint32_t idx = alloc_slot();
    fn_of(idx).emplace(std::forward<F>(fn));
    deadline_[idx] = t;
    dheap_.emplace_back();
    sift_up(dheap_, dheap_.size() - 1, HeapEntry{t, seq, idx});
    return (static_cast<EventId>(gen_[idx]) << 32) | (idx + 1);
  }

  /// Allocates the next tie-break sequence number as a stamp `holder`
  /// keeps.  A caller that manages its own ordered event stream stamps
  /// each logical event with one of these at creation time; entering the
  /// heap later via timer_arm_keyed() with the stamped value reproduces
  /// exactly the firing order push() would have produced.  In a shard
  /// window the holder is listed for the barrier commit.
  std::uint64_t alloc_seq(StampHolder& holder) {
    if (shard_log_ == nullptr) return (*seq_src_)++;
    if (!holder.listed_) list(holder);
    return take_seq();
  }

  /// Cancels a pending one-shot in O(1): the callback is destroyed now, and
  /// the parked entry is dropped (its slot recycled) when it surfaces at the
  /// deadline heap's top.  Cancelling an already-fired, already-cancelled,
  /// or invalid id is a harmless no-op: the generation stamp in the handle
  /// no longer matches the slot.
  void cancel(EventId id);

  bool empty() const { return heap_.empty() && dheap_.empty(); }
  /// Entries parked in both heaps.  A cancelled one-shot or deadline timer
  /// still counts until its entry surfaces at the deadline heap's top.
  std::size_t size() const { return heap_.size() + dheap_.size(); }

  /// Time of the earliest pending event; kTimeInfinity when empty.  O(1).
  /// (Both heap tops are kept accurate — see settle_dtop.)
  Time next_time() const {
    Time m = heap_.empty() ? kTimeInfinity : heap_[0].t;
    if (!dheap_.empty() && dheap_[0].t < m) m = dheap_[0].t;
    return m;
  }

  /// True when an event keyed (t, seq) would fire before everything
  /// currently pending — the coalescing probe of the two-level scheduler.
  bool before_top(Time t, std::uint64_t seq) const {
    const HeapEntry e{t, seq, 0};
    return (heap_.empty() || earlier(e, heap_[0])) && (dheap_.empty() || earlier(e, dheap_[0]));
  }

  /// Pops the earliest event and runs it, setting `now` to its time first.
  /// Returns false if the queue is empty.  A one-shot's handles die
  /// (generation bumped) before its callback runs, so the callback may
  /// freely schedule and cancel — including its own, now stale, id; the
  /// slot is recycled after the callback returns.  Persistent timer slots
  /// keep their callback and may re-arm themselves.
  bool pop_and_run(Time& now);

  /// Fused next_time() + pop_and_run(): the run loop's one call per event.
  /// Selects the earlier of the two heap tops ONCE, and runs it only if
  /// its time is <= `until`.  kBeyond leaves the event in place (its time
  /// was finite but past the bound); kEmpty means nothing is pending.
  enum class PopResult : std::uint8_t { kRan, kEmpty, kBeyond };
  PopResult pop_and_run_bounded(Time until, Time& now);

  // --- Persistent timers ----------------------------------------------------
  // A timer is a slot whose callback survives firing: high-frequency
  // self-rescheduling events (port serialization-done, pacing wakeups,
  // RetransQ drains, lane heads) re-arm the same slot instead of paying
  // slot release/acquire and callback destroy/reconstruct per fire.
  // Handles are plain slot indices; the owner must destroy the timer
  // before the EventQueue goes away (components already outlive neither
  // their Simulator nor the reverse).

  /// Registers `fn` in a persistent slot; the timer starts un-armed.
  std::uint32_t timer_create(EventCallback fn);
  /// Cancels and releases the slot (the callback is destroyed).
  void timer_destroy(std::uint32_t timer);
  /// (Re-)arms the timer at absolute time `t` with a fresh sequence number
  /// — equivalent in firing order to cancel + push().
  void timer_arm(std::uint32_t timer, Time t) { timer_arm_keyed(timer, t, take_seq()); }
  /// (Re-)arms with an explicit (t, seq) key stamped via alloc_seq().
  void timer_arm_keyed(std::uint32_t timer, Time t, std::uint64_t seq);
  /// (Re-)arms in the DEADLINE class: the timer fires at absolute time `t`
  /// unless pushed further first.  Extending a pending deadline is O(1);
  /// use this for timers that are re-armed per-ACK but fire per-timeout.
  void timer_arm_deadline(std::uint32_t timer, Time t);
  /// Removes the timer from the heap if pending; the callback is retained.
  /// For deadline-class timers this is O(1) (the parked entry evaporates
  /// when it surfaces).
  void timer_cancel(std::uint32_t timer);
  bool timer_pending(std::uint32_t timer) const {
    return pos_[timer] != kNoPos && (!in_dheap_[timer] || deadline_[timer] != kTimeInfinity);
  }

  /// Total event slots ever allocated (capacity, not live events) — lets
  /// tests assert the slab stops growing under steady-state churn.
  std::size_t slots_allocated() const { return gen_.size(); }

  /// Slab footprint: callback chunks plus the per-slot metadata arrays and
  /// both heaps' storage.  Counts capacity (slabs never shrink), so
  /// it tracks the queue's real high-water memory.
  std::uint64_t arena_bytes() const {
    const std::uint64_t slots = gen_.size();
    const std::uint64_t per_slot =
        sizeof(EventCallback) + 2 * sizeof(std::uint32_t)  // gen_, pos_
        + 2 * sizeof(std::uint8_t)                         // persistent_, in_dheap_
        + sizeof(Time) + sizeof(std::uint32_t);            // deadline_, free_
    return slots * per_slot +
           static_cast<std::uint64_t>(heap_.capacity() + dheap_.capacity()) * sizeof(HeapEntry);
  }

  /// High-water mark of the first-level heap — the figure the two-level
  /// scheduler shrinks from O(packets in flight + flows) to O(active
  /// links).  Deadline-class and one-shot entries are excluded: they park
  /// in the deadline heap precisely so timer events never sift across them.
  std::size_t peak_heap_size() const { return peak_heap_; }

  // --- Space-parallel sharding hooks (see sim/shard.h) ----------------------

  /// Redirects sequence allocation to an external counter shared by every
  /// shard's queue (single-threaded setup phase).  Pass nullptr to restore
  /// the private counter.
  void set_shared_seq(std::uint64_t* shared) { seq_src_ = shared != nullptr ? shared : &next_seq_; }

  /// Enters window mode: every sequence draw returns a provisional id and
  /// appends a ShardSeqAlloc to `log` (whose index IS the id).  `log` must
  /// outlive the window; the caller clears it.
  void begin_shard_window(std::vector<ShardSeqAlloc>* log) { shard_log_ = log; }

  /// Leaves window mode and rewrites every provisional sequence still
  /// pending in either heap with its committed value (`committed[i]`
  /// for provisional id i).  The per-shard mapping is strictly increasing
  /// and every committed value exceeds every previously committed one, so
  /// relabeling preserves all heap invariants in place — no re-heapify.
  /// Then commits the holders listed this window, appending to `drains`
  /// those with a drain to run after every shard has been relabeled.
  void end_shard_window(const std::vector<std::uint64_t>& committed,
                        std::vector<StampHolder*>& drains);

  /// (time, sequence) of the event currently executing — the "parent" a
  /// window-mode allocation is logged under.  Valid during pop_and_run
  /// (and lane coalescing, which refreshes it via set_current_event).
  Time current_event_time() const { return cur_time_; }
  std::uint64_t current_event_seq() const { return cur_parent_; }
  /// The current event's sequence as a stamp `holder` keeps (deferred
  /// flow completions): when it is provisional the holder is listed for
  /// the barrier commit.
  std::uint64_t current_event_seq(StampHolder& holder) {
    if ((cur_parent_ & kProvisionalSeq) != 0 && !holder.listed_) list(holder);
    return cur_parent_;
  }
  /// Lane coalescing runs a logical event without a pop; the lane refreshes
  /// the current-event key so allocations inside it log the right parent.
  void set_current_event(Time t, std::uint64_t seq) {
    cur_time_ = t;
    cur_parent_ = seq;
  }

  // --- Checkpoint/restore hooks (see sim/snapshot.h) ------------------------
  // Pending one-shots are never serialized (their owners re-schedule them
  // on restore); persistent timers ARE, as (heap, key) tuples.  Heap
  // *arrangement* is not observable — pop order is fully
  // determined by the globally unique (t, seq) keys — so restoring by
  // reinsertion reproduces execution bit-exactly even though the internal
  // array layout may differ from the uninterrupted run.

  /// Arm state of a persistent timer, as serialized by a snapshot.
  struct TimerArm {
    std::uint8_t kind = 0;  // 0 = unarmed, 1 = main heap, 2 = deadline class
    Time t = 0;             // parked heap key time (kind != 0)
    std::uint64_t seq = 0;  // parked heap key sequence (kind != 0)
    Time deadline = 0;      // true deadline (kind == 2; >= t when lazily extended)
  };

  TimerArm timer_arm_state(std::uint32_t timer) const {
    TimerArm a;
    if (pos_[timer] == kNoPos) return a;
    if (in_dheap_[timer]) {
      if (deadline_[timer] == kTimeInfinity) return a;  // lazily cancelled
      const HeapEntry& e = dheap_[pos_[timer]];
      a.kind = 2;
      a.t = e.t;
      a.seq = e.seq;
      a.deadline = deadline_[timer];
      return a;
    }
    const HeapEntry& e = heap_[pos_[timer]];
    a.kind = 1;
    a.t = e.t;
    a.seq = e.seq;
    return a;
  }

  /// Physically removes a timer's pending entry from whichever heap holds
  /// it.  Unlike timer_cancel this also evicts lazily-cancelled deadline
  /// entries, so after unparking every timer the heaps hold exactly the
  /// arms a snapshot records.
  void timer_unpark(std::uint32_t timer) {
    if (pos_[timer] != kNoPos) {
      if (in_dheap_[timer]) {
        remove_from_heap(dheap_, pos_[timer]);
        settle_dtop();
      } else {
        remove_from_heap(heap_, pos_[timer]);
      }
      pos_[timer] = kNoPos;
    }
    in_dheap_[timer] = 0;
    deadline_[timer] = kTimeInfinity;
  }

  /// Re-arms a timer with an exact saved key — the restore-side counterpart
  /// of timer_arm_state().  Call settle_deadline_top() once after a restore
  /// batch to re-establish the deadline heap's top-accuracy invariant.
  void timer_restore(std::uint32_t timer, const TimerArm& a) {
    timer_unpark(timer);
    if (a.kind == 0) return;
    if (a.kind == 1) {
      insert_main(HeapEntry{a.t, a.seq, timer});
      return;
    }
    in_dheap_[timer] = 1;
    deadline_[timer] = a.deadline;
    dheap_.emplace_back();
    sift_up(dheap_, dheap_.size() - 1, HeapEntry{a.t, a.seq, timer});
  }

  /// Re-establishes "the deadline heap's top matches its slot's true
  /// deadline" after a batch of timer_restore() calls.
  void settle_deadline_top() { settle_dtop(); }

  std::uint64_t snapshot_next_seq() const { return *seq_src_; }
  void restore_next_seq(std::uint64_t v) { *seq_src_ = v; }

 private:
  static constexpr std::uint32_t kChunkShift = 9;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;  // 512 events
  static constexpr std::uint32_t kNoPos = UINT32_MAX;

  /// Heap entries carry the full ordering key inline so sifting compares
  /// contiguous records; only the per-slot position array is written while
  /// entries move (one store per level).
  struct HeapEntry {
    Time t;
    std::uint64_t seq;  // FIFO tie-break among equal times
    std::uint32_t slot;
  };

  EventCallback& fn_of(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  std::uint64_t take_seq() {
    if (shard_log_ != nullptr) {
      shard_log_->push_back(ShardSeqAlloc{cur_time_, cur_parent_});
      return kProvisionalSeq | (shard_log_->size() - 1);
    }
    return (*seq_src_)++;
  }
  /// Out of line: runs once per holder per window, and keeps the inline
  /// stamping paths as small as they were without holders.
  void list(StampHolder& holder);

  void grow();
  std::uint32_t alloc_slot() {
    if (free_.empty()) grow();
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  void insert_main(const HeapEntry& e) {
    heap_.emplace_back();  // placeholder; sift_up writes the entry in place
    if (heap_.size() > peak_heap_) peak_heap_ = heap_.size();
    sift_up(heap_, heap_.size() - 1, e);
  }
  void place(std::vector<HeapEntry>& h, std::size_t pos, const HeapEntry& e) {
    h[pos] = e;
    pos_[e.slot] = static_cast<std::uint32_t>(pos);
  }
  // recycle a slot (bumps generation)
  void release(std::uint32_t idx) {
    pos_[idx] = kNoPos;
    ++gen_[idx];  // invalidates every outstanding handle to this slot
    free_.push_back(idx);
  }
  void remove_from_heap(std::vector<HeapEntry>& h, std::size_t pos);
  void sift_up(std::vector<HeapEntry>& h, std::size_t pos, HeapEntry e);
  void sift_down(std::vector<HeapEntry>& h, std::size_t pos, HeapEntry e);
  void sift_root_to_bottom(std::vector<HeapEntry>& h, HeapEntry e);
  /// Earlier of the two heap tops under the global (t, seq) order
  /// (sequences are globally unique, so cross-heap ties cannot occur).
  /// 0 = main (timers), 1 = deadline heap, -1 = both empty.
  int select_top() const {
    if (dheap_.empty()) return heap_.empty() ? -1 : 0;
    if (heap_.empty()) return 1;
    return earlier(dheap_[0], heap_[0]) ? 1 : 0;
  }
  void run_top(int which, Time& now);
  /// Restores the invariant "the deadline heap's top entry matches its
  /// slot's true time": drops lazily-cancelled tops (recycling a one-shot's
  /// slot), re-keys lazily-extended ones (their key only grows, so an
  /// in-place sift_down; the entry keeps its original sequence, so
  /// re-keying never consumes one).
  void settle_dtop();

  std::vector<std::unique_ptr<EventCallback[]>> chunks_;  // stable storage
  std::vector<std::uint32_t> gen_;   // per-slot generation stamp
  std::vector<std::uint32_t> pos_;   // per-slot heap position (kNoPos = free)
  std::vector<std::uint8_t> persistent_;  // slot is a timer (callback survives fire)
  std::vector<std::uint8_t> in_dheap_;    // a timer's pending entry lives in dheap_
  std::vector<Time> deadline_;       // true time of a dheap_ entry (never = cancelled)
  std::vector<std::uint32_t> free_;  // recycled slot indices
  std::vector<HeapEntry> heap_;      // persistent timers (index-tracked)
  std::vector<HeapEntry> dheap_;     // deadline timers + one-shots (index-tracked)
  std::uint64_t next_seq_ = 1;
  std::uint64_t* seq_src_ = &next_seq_;  // shared counter in sharded setup
  std::vector<ShardSeqAlloc>* shard_log_ = nullptr;  // non-null inside a window
  Time cur_time_ = 0;
  std::uint64_t cur_parent_ = 0;  // seq of the event currently executing
  std::size_t peak_heap_ = 0;
  // Fused pop+re-arm: while a persistent timer's callback runs, its spent
  // root entry stays parked at heap_[0] (its key is a strict minimum among
  // main-heap entries, so nothing can sift past it).  If the callback
  // re-arms the same slot — the self-rescheduling pattern of lane heads
  // and port serialization timers, i.e. nearly every pop — the root is
  // re-keyed in place with a single sift_down instead of a full remove +
  // insert.  Otherwise the stale root is removed after the callback
  // returns.
  std::uint32_t deferred_root_ = kNoPos;
  std::vector<StampHolder*> holders_;  // took a provisional stamp this window
};

/// Rewrites a provisional (window-local) sequence into its committed
/// global value; committed sequences pass through unchanged.  Handed to
/// StampHolder::commit_stamps at every shard-window barrier.
struct SeqRemap {
  const std::vector<std::uint64_t>* committed = nullptr;
  std::uint64_t operator()(std::uint64_t s) const {
    return (s & EventQueue::kProvisionalSeq) != 0
               ? (*committed)[s & ~EventQueue::kProvisionalSeq]
               : s;
  }
};

// --- Inline hot path ---------------------------------------------------------
// Everything below runs per event or per packet-hop; keeping the bodies
// header-visible lets the run loop (simulator.cpp), the delivery lanes
// (channel.cpp) and the port serialization timers (port.cpp) inline the
// whole schedule->fire machinery without LTO.  Cold maintenance (grow,
// timer_create/destroy, shard-window relabeling) stays in event_queue.cpp.

inline void EventQueue::cancel(EventId id) {
  const std::uint64_t slot_part = id & 0xFFFFFFFFull;
  if (slot_part == 0) return;  // kInvalidEvent or malformed
  const auto idx = static_cast<std::uint32_t>(slot_part - 1);
  if (idx >= gen_.size()) return;  // never allocated

  if (gen_[idx] != static_cast<std::uint32_t>(id >> 32)) return;  // stale handle
  if (persistent_[idx]) return;  // timers are managed via timer_* only

  // A matching one-shot handle is always parked in the deadline heap (firing
  // bumps the generation).  Lazy cancel, as for deadline timers: destroy the
  // callback now (releasing captured resources) and let the entry drop out
  // when it surfaces.
  fn_of(idx).reset();
  deadline_[idx] = kTimeInfinity;
  ++gen_[idx];  // invalidates every outstanding handle to this slot
  if (pos_[idx] == 0) settle_dtop();
}

inline void EventQueue::timer_arm_keyed(std::uint32_t timer, Time t, std::uint64_t seq) {
  if (timer == deferred_root_) {
    // Self re-arm from the slot's own callback: re-key the spent root in
    // place.  The new key can only be later, so one sift_down suffices —
    // and it usually terminates at the root (the next lane head / next
    // serialization-done is still among the earliest events pending).
    deferred_root_ = kNoPos;
    sift_down(heap_, 0, HeapEntry{t, seq, timer});
    return;
  }
  if (pos_[timer] != kNoPos) {
    if (in_dheap_[timer]) {
      // Switching discipline mid-life (rare): vacate the deadline heap.
      remove_from_heap(dheap_, pos_[timer]);
      settle_dtop();
    } else {
      remove_from_heap(heap_, pos_[timer]);
    }
    pos_[timer] = kNoPos;
  }
  in_dheap_[timer] = 0;
  insert_main(HeapEntry{t, seq, timer});
}

inline void EventQueue::timer_arm_deadline(std::uint32_t timer, Time t) {
  deadline_[timer] = t;
  if (pos_[timer] != kNoPos) {
    if (!in_dheap_[timer]) {
      // Switching discipline mid-life (rare): vacate the first level.
      remove_from_heap(heap_, pos_[timer]);
      pos_[timer] = kNoPos;
    } else {
      const std::size_t p = pos_[timer];
      if (dheap_[p].t <= t) {
        // The common case — the deadline moves forward (per-ACK RTO
        // pushes): O(1).  The parked entry goes stale; it is re-keyed
        // only if it ever surfaces at the top.
        if (p == 0 && dheap_[0].t < t) settle_dtop();
        return;
      }
      // Deadline shrank below the parked entry: re-key eagerly (the new
      // key is earlier, so an in-place sift_up).
      sift_up(dheap_, p, HeapEntry{t, take_seq(), timer});
      return;
    }
  }
  in_dheap_[timer] = 1;
  dheap_.emplace_back();
  sift_up(dheap_, dheap_.size() - 1, HeapEntry{t, take_seq(), timer});
}

inline void EventQueue::timer_cancel(std::uint32_t timer) {
  if (pos_[timer] == kNoPos) {
    deadline_[timer] = kTimeInfinity;
    return;
  }
  if (in_dheap_[timer]) {
    // Lazy cancel: the parked entry evaporates when it surfaces.
    deadline_[timer] = kTimeInfinity;
    if (pos_[timer] == 0) settle_dtop();
    return;
  }
  remove_from_heap(heap_, pos_[timer]);
  pos_[timer] = kNoPos;
}

inline void EventQueue::settle_dtop() {
  while (!dheap_.empty()) {
    HeapEntry top = dheap_[0];
    const Time dl = deadline_[top.slot];
    if (dl == top.t) return;  // accurate: this deadline is real
    if (dl == kTimeInfinity) {
      // Lazily cancelled: drop the entry.  A timer keeps its slot; a
      // cancelled one-shot's slot finally returns to the pool.
      const HeapEntry last = dheap_.back();
      dheap_.pop_back();
      if (persistent_[top.slot]) {
        pos_[top.slot] = kNoPos;
      } else {
        release(top.slot);
      }
      if (!dheap_.empty()) sift_root_to_bottom(dheap_, last);
      continue;
    }
    // Lazily extended: re-key at the true deadline (later, so sift down).
    // The entry keeps its original sequence — re-keying consumes nothing,
    // so the global sequence stream is independent of WHEN stale entries
    // happen to surface (a shard's deadline heap sees only its own
    // traffic; allocating here would make sequence numbering depend on
    // sharding).
    top.t = dl;
    sift_down(dheap_, 0, top);
  }
}

inline void EventQueue::run_top(int which, Time& now) {
  if (which == 0) {
    // Only persistent timers enter the main heap.  The callback stays in
    // place and may re-arm its own slot.  Root removal is DEFERRED: the
    // spent entry's key precedes every other main-heap key that can exist
    // during the callback, so it pins the root and timer_arm_keyed can fuse
    // a self re-arm into one sift_down.
    const std::uint32_t idx = heap_[0].slot;
    now = heap_[0].t;
    cur_time_ = heap_[0].t;
    cur_parent_ = heap_[0].seq;
    pos_[idx] = kNoPos;
    deferred_root_ = idx;
    fn_of(idx)();
    if (deferred_root_ == idx) {
      // Not re-armed (or re-armed into the deadline class): physically
      // remove the spent root now.
      deferred_root_ = kNoPos;
      const HeapEntry last = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) sift_root_to_bottom(heap_, last);
    }
    return;
  }

  // Deadline heap fires: the top is accurate by the settle_dtop invariant,
  // and settling again before the callback keeps it so while it runs.
  const HeapEntry top = dheap_[0];
  const HeapEntry last = dheap_.back();
  dheap_.pop_back();
  if (!dheap_.empty()) sift_root_to_bottom(dheap_, last);
  settle_dtop();
  pos_[top.slot] = kNoPos;
  now = top.t;
  cur_time_ = top.t;
  cur_parent_ = top.seq;
  if (persistent_[top.slot]) {
    deadline_[top.slot] = kTimeInfinity;
    fn_of(top.slot)();
    return;
  }
  // One-shot: invalidate, run IN PLACE.  Handles die here (cancel of the
  // running event's own id is a stale no-op), but the slot joins the free
  // list only AFTER the callback returns: a reentrant push can then never
  // reuse this storage, which makes running the callback in place safe —
  // skipping the relocate (a kInlineSize-byte move through an indirect
  // call) that popping by-move would pay on every event.
  ++gen_[top.slot];
  EventCallback& fn = fn_of(top.slot);
  fn();
  fn.reset();
  free_.push_back(top.slot);
}

inline bool EventQueue::pop_and_run(Time& now) {
  const int which = select_top();
  if (which < 0) return false;
  run_top(which, now);
  return true;
}

inline EventQueue::PopResult EventQueue::pop_and_run_bounded(Time until, Time& now) {
  const int which = select_top();
  if (which < 0) return PopResult::kEmpty;
  const Time t = which == 0 ? heap_[0].t : dheap_[0].t;
  if (t > until) return PopResult::kBeyond;
  run_top(which, now);
  return PopResult::kRan;
}

// --- Index-tracked heaps -----------------------------------------------------

inline void EventQueue::remove_from_heap(std::vector<HeapEntry>& h, std::size_t pos) {
  const HeapEntry last = h.back();
  h.pop_back();
  if (pos < h.size()) {
    // Moving the last entry into the hole: it can only need to travel one
    // direction.  Try down; if it did not move, try up.
    sift_down(h, pos, last);
    if (pos_[last.slot] == pos) sift_up(h, pos, last);
  }
}

inline void EventQueue::sift_up(std::vector<HeapEntry>& h, std::size_t pos, HeapEntry e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) >> 2;
    const HeapEntry& p = h[parent];
    if (!earlier(e, p)) break;
    place(h, pos, p);
    pos = parent;
  }
  place(h, pos, e);
}

inline void EventQueue::sift_down(std::vector<HeapEntry>& h, std::size_t pos, HeapEntry e) {
  const std::size_t n = h.size();
  for (;;) {
    const std::size_t first = (pos << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(h[c], h[best])) best = c;
    }
    if (!earlier(h[best], e)) break;
    place(h, pos, h[best]);
    pos = best;
  }
  place(h, pos, e);
}

inline void EventQueue::sift_root_to_bottom(std::vector<HeapEntry>& h, HeapEntry e) {
  // Bottom-up pop: the hole's replacement is the heap's last (i.e. a late)
  // entry, so instead of comparing it at every level, promote the minimum
  // child all the way down and then bubble the replacement up from the
  // bottom — it rarely moves.  ~25% fewer comparisons than a plain sift.
  const std::size_t n = h.size();
  std::size_t pos = 0;
  for (;;) {
    const std::size_t first = (pos << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(h[c], h[best])) best = c;
    }
    place(h, pos, h[best]);
    pos = best;
  }
  sift_up(h, pos, e);
}

}  // namespace dcp
