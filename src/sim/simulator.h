#pragma once
// The discrete-event simulator driving every model in this library.
//
// Ownership: a Simulator is created by the experiment (or test) and passed
// by reference to every component.  There are no globals; two simulations
// can run side by side in one process.

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/event_callback.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace dcp {

class CheckObserver;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  /// The Simulator whose run() loop is executing on THIS thread
  /// (nullptr outside a run loop).  Cross-shard observers (the invariant
  /// oracle) use it to stamp timestamps with the executing shard's clock —
  /// reading any other shard's now() from a hook is a data race.
  static const Simulator* active() { return tls_active_; }

  /// Schedules `fn` to run `delay` from now.  Generation-stamped EventIds
  /// make cancelling an already-fired id a harmless no-op, though callers
  /// still null their stored ids inside callbacks for their own state
  /// machines' sake.  Templated (like EventQueue::push) so the closure is
  /// constructed directly in its slab slot.
  template <typename F>
  EventId schedule(Time delay, F&& fn) {
    return queue_.push(now_ + delay, std::forward<F>(fn));
  }
  template <typename F>
  EventId schedule_at(Time t, F&& fn) {
    return queue_.push(t < now_ ? now_ : t, std::forward<F>(fn));
  }
  void cancel(EventId id) { queue_.cancel(id); }

  /// Runs until the queue drains or simulated time exceeds `until`.
  void run(Time until = kTimeInfinity);

  bool idle() const { return queue_.empty(); }
  Time next_event_time() const { return queue_.next_time(); }
  std::uint64_t events_processed() const { return events_processed_; }

  // --- Two-level scheduler support -----------------------------------------
  // A component owning an ordered event stream (a Channel's delivery lane)
  // stamps each logical event with alloc_event_seq() at creation and keeps
  // only its earliest one in the heap (via Timer::arm_keyed_abs).  Because
  // one sequence number is consumed per logical event, exactly as if each
  // were schedule()d individually, the interleaving with every other event
  // is the one individual schedule() calls would produce.

  /// Stamps a logical event that `holder` keeps with the next global
  /// tie-break sequence (see StampHolder for the shard-window contract).
  std::uint64_t alloc_event_seq(StampHolder& holder) { return queue_.alloc_seq(holder); }

  /// True when a logical event keyed (t, seq) precedes everything pending
  /// in the heap — i.e. a lane may run it now without a heap round trip.
  bool lane_may_run(Time t, std::uint64_t seq) const { return queue_.before_top(t, seq); }

  /// Accounts a lane-coalesced delivery as one event, as if the heap had
  /// popped it.  The coalesced record's (t, seq) becomes the current event
  /// key, so anything it allocates logs the right parent in a shard window.
  void note_coalesced_event(Time t, std::uint64_t seq) {
    ++events_processed_;
    queue_.set_current_event(t, seq);
  }

  /// Event-slab capacity (slots ever allocated) — surfaced so CorePerf can
  /// report per-run allocation behaviour alongside events/sec.
  std::size_t event_slots_allocated() const { return queue_.slots_allocated(); }

  /// Bytes held by the event queue's slabs and heaps (see
  /// EventQueue::arena_bytes) — one term of ShardGroup::arena_bytes().
  std::uint64_t event_arena_bytes() const { return queue_.arena_bytes(); }

  /// High-water mark of the scheduling heap: O(active links + timers)
  /// under the two-level scheduler, not O(packets in flight).
  std::size_t peak_heap_size() const { return queue_.peak_heap_size(); }

  /// The invariant-checking observer armed on this simulation, if any (see
  /// check/observer.h).  Components consult this at their hook sites; the
  /// unarmed fast path is a single null check.
  CheckObserver* check_observer() const { return check_observer_; }
  void set_check_observer(CheckObserver* ob) { check_observer_ = ob; }

  // --- Space-parallel sharding support (see sim/shard.h) --------------------
  // A ShardGroup gives every shard its own Simulator but one logical
  // sequence space; these hooks are inert in ordinary single-simulator
  // runs, where no StampHolder is ever listed.

  /// (time, seq) key of the event currently executing — the parent logged
  /// for window allocations.
  Time current_event_time() const { return queue_.current_event_time(); }
  std::uint64_t current_event_seq() const { return queue_.current_event_seq(); }
  /// The current event's sequence as a stamp `holder` keeps (deferred
  /// flow completions).
  std::uint64_t current_event_seq(StampHolder& holder) { return queue_.current_event_seq(holder); }

  /// Setup-phase shared sequence counter (nullptr restores the private one).
  void set_shared_seq(std::uint64_t* shared) { queue_.set_shared_seq(shared); }
  /// Window-mode entry/exit; see EventQueue::begin_shard_window and
  /// end_shard_window.  Exit relabels the heaps and commits the stamp
  /// holders listed this window.  Holders with a cross-shard drain are
  /// appended to `drains` for the group to run once every shard has been
  /// relabeled: a drain arms another shard's heap with a committed key,
  /// which would sift above that heap's still-provisional keys.
  void begin_shard_window(std::vector<ShardSeqAlloc>* log) { queue_.begin_shard_window(log); }
  void end_shard_window(const std::vector<std::uint64_t>& committed,
                        std::vector<StampHolder*>& drains) {
    queue_.end_shard_window(committed, drains);
  }

  /// Advances the clock to a window/slice boundary without running events
  /// (mirrors what run(until) does when the next event lies beyond it).
  void sync_now(Time t) {
    if (t > now_) now_ = t;
  }

  // --- Checkpoint/restore support (see sim/snapshot.h) ----------------------

  /// Overwrites the clock and event counter with a snapshot's values.
  void restore_clock(Time now, std::uint64_t events) {
    now_ = now;
    events_processed_ = events;
  }
  /// Overwrites the current-event key (allocation parent) from a snapshot.
  void restore_current_event(Time t, std::uint64_t seq) { queue_.set_current_event(t, seq); }
  std::uint64_t snapshot_next_seq() const { return queue_.snapshot_next_seq(); }
  void restore_next_seq(std::uint64_t v) { queue_.restore_next_seq(v); }
  /// Re-establishes the deadline heap's top-accuracy invariant after a
  /// batch of Timer::restore_arm() calls.
  void settle_deadline_top() { queue_.settle_deadline_top(); }

 private:
  friend class Timer;

  static thread_local const Simulator* tls_active_;

  EventQueue queue_;
  Time now_ = 0;
  std::uint64_t events_processed_ = 0;
  CheckObserver* check_observer_ = nullptr;
};

/// A persistent, self-rescheduling event: the callback is registered once
/// and survives every fire, so re-arming costs a heap insert only — no
/// slot churn, no callback reconstruction, no O(log n) cancel on the
/// cancel+reschedule pattern.  Drop-in replacement for the high-frequency
/// EventId timers (port serialization-done, NIC pacing wakeups, RetransQ
/// PCIe drains, CC timers): arm() consumes one tie-break sequence exactly
/// like schedule() did, so firing order is unchanged.
///
/// The owner must not outlive the Simulator (components already hold
/// Simulator references, so destruction order is unchanged).  The callback
/// may re-arm its own timer; pending() is false while it runs.
class Timer {
 public:
  Timer(Simulator& sim, EventCallback fn)
      : sim_(sim), slot_(sim.queue_.timer_create(std::move(fn))) {}
  ~Timer() { sim_.queue_.timer_destroy(slot_); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re-)arms `delay` from now; equivalent to cancel + schedule(delay).
  void arm(Time delay) { sim_.queue_.timer_arm(slot_, sim_.now() + delay); }
  /// (Re-)arms at absolute time `t` (clamped to now, like schedule_at).
  void arm_at(Time t) { sim_.queue_.timer_arm(slot_, t < sim_.now() ? sim_.now() : t); }
  /// (Re-)arms with an explicit (t, seq) key stamped via alloc_event_seq():
  /// the two-level scheduler's lane-head entry.
  void arm_keyed_abs(Time t, std::uint64_t seq) { sim_.queue_.timer_arm_keyed(slot_, t, seq); }
  /// (Re-)arms `delay` from now in the DEADLINE class: extending a pending
  /// deadline is O(1) and the entry parks in the second-level heap.  Use
  /// for timers re-armed per-ACK but firing per-timeout (RTO, keepalive,
  /// stall checks), so packet events never sift across them.
  void arm_deadline(Time delay) { sim_.queue_.timer_arm_deadline(slot_, sim_.now() + delay); }
  void arm_deadline_at(Time t) {
    sim_.queue_.timer_arm_deadline(slot_, t < sim_.now() ? sim_.now() : t);
  }
  /// Removes from the heap if pending; harmless no-op otherwise.
  void cancel() { sim_.queue_.timer_cancel(slot_); }
  bool pending() const { return sim_.queue_.timer_pending(slot_); }

  /// Checkpoint hooks: the exact heap arm (kind + key) for serialization,
  /// and its restore-side overlay (see sim/snapshot.h).
  EventQueue::TimerArm arm_state() const { return sim_.queue_.timer_arm_state(slot_); }
  void restore_arm(const EventQueue::TimerArm& a) { sim_.queue_.timer_restore(slot_, a); }

 private:
  Simulator& sim_;
  std::uint32_t slot_;
};

}  // namespace dcp
