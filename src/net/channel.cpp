#include "net/channel.h"

#include <algorithm>
#include <cassert>

#include "check/observer.h"
#include "sim/snapshot.h"
// The two concrete datapath endpoints, for the static dispatch in arrive()
// (both are final; their receive_fast entries are header-visible so switch
// classification inlines into delivery).
#include "host/host.h"
#include "switch/switch.h"

namespace dcp {

Channel::~Channel() {
  // Drain parked records so their packet slots return to the pool.  The
  // lane timer's own slot is released by its member destructor afterwards.
  LaneRecord* r = lane_head_;
  while (r != nullptr) {
    LaneRecord* next = r->next;
    PacketPtr::adopt(r->pkt);  // handle dies immediately, recycling the slot
    LanePool::local().release(r);
    r = next;
  }
}

void Channel::deliver_slow(PacketPtr pkt, Time extra) {
  if (!up_) {
    if (CheckObserver* ob = sim_.check_observer()) {
      ob->on_drop(DropSite::kWireDown, kInvalidNode, *pkt);
    }
    discarded_packets_++;
    return;  // the dying handle recycles the packet
  }
  if (fault_ != nullptr && fault_->active()) {
    if (fault_->blackhole_refs > 0) {
      if (CheckObserver* ob = sim_.check_observer()) {
        ob->on_drop(DropSite::kWireBlackhole, kInvalidNode, *pkt);
      }
      fault_->blackholed++;
      discarded_packets_++;
      return;
    }
    if (fault_->drop_rate > 0.0 && fault_->rng->chance(fault_->drop_rate)) {
      if (CheckObserver* ob = sim_.check_observer()) {
        ob->on_drop(DropSite::kWireRandom, kInvalidNode, *pkt);
      }
      fault_->dropped++;
      discarded_packets_++;
      return;
    }
  }
  // Corruption is decided now (deterministic draw order) but takes effect at
  // the far end: the frame occupies the wire, then fails CRC on arrival.
  const bool corrupt =
      fault_ != nullptr && fault_->corrupt_rate > 0.0 && fault_->rng->chance(fault_->corrupt_rate);
  delivered_packets_++;
  const std::uint32_t epoch = cut_epoch_;

  if (cross_dst_sim_ != nullptr) {
    // Cut edge: copy the packet out of the source shard's pool and park it
    // until the barrier.  One sequence per delivery, same as the lane
    // below, keeps the merged order bit-identical to the serial run.
    CrossRecord cr;
    cr.t = sim_.now() + extra + propagation_;
    cr.seq = sim_.alloc_event_seq(*this);
    cr.epoch = epoch;
    cr.corrupt = corrupt;
    cr.pkt = *pkt;
    outbox_.push_back(std::move(cr));
    return;  // the dying handle recycles the source-side slot
  }

  LaneRecord* r = LanePool::local().acquire();
  r->t = sim_.now() + extra + propagation_;
  r->seq = sim_.alloc_event_seq(*this);
  r->pkt = pkt.release_raw();
  r->next = nullptr;
  r->epoch = epoch;
  r->corrupt = corrupt;
  lane_insert(r);
}

void Channel::arrive(PacketPtr p, std::uint32_t epoch, bool corrupt, Simulator& sim) {
  // Observer hooks go through `sim`: that is the simulator executing this
  // event (the destination shard's on a cut edge).
  if (epoch != cut_epoch_) {
    if (CheckObserver* ob = sim.check_observer()) {
      ob->on_drop(DropSite::kWireCutInFlight, kInvalidNode, *p);
    }
    in_flight_dropped_++;  // a drop-in-flight cut happened mid-wire
    return;
  }
  if (corrupt) {
    if (CheckObserver* ob = sim.check_observer()) {
      ob->on_drop(DropSite::kWireCorrupt, kInvalidNode, *p);
    }
    if (fault_ != nullptr) fault_->corrupted++;
    return;
  }
  switch (dst_kind_) {
    case NodeKind::kSwitch:
      static_cast<Switch*>(dst_)->receive_fast(std::move(p), dst_port_);
      return;
    case NodeKind::kHost:
      static_cast<Host*>(dst_)->receive_fast(std::move(p), dst_port_);
      return;
    case NodeKind::kOther:
      break;  // test sinks / tools: only the virtual hop exists
  }
  dst_->receive(std::move(p), dst_port_);
}

void Channel::lane_insert_ooo(LaneRecord* r) {
  // Reached only from lane_insert's inline fast paths: the lane is
  // non-empty and r lands strictly before the tail.
  if (r->t < lane_head_->t) {
    // An out-of-band frame (PFC PAUSE via Port::send_oob) overtaking the
    // in-flight backlog: new head, so the heap mirror must be re-keyed.
    r->next = lane_head_;
    lane_head_ = r;
    lane_timer_.arm_keyed_abs(r->t, r->seq);
    return;
  }
  // Rare middle insert (short OOB frame landing between queued MTU frames):
  // after the last record with t <= r->t, preserving FIFO among equal times.
  LaneRecord* n = lane_head_;
  while (n->next != nullptr && n->next->t <= r->t) n = n->next;
  r->next = n->next;
  n->next = r;
}

void Channel::fire_lane() {
  LaneRecord* r = lane_head_;
  for (;;) {
    // Pop, then re-arm for the remaining head BEFORE running the arrival
    // path: arrivals can re-enter deliver() on this same channel (zero-
    // propagation loops), and lane_insert relies on "head present => timer
    // armed with the head's key".
    lane_head_ = r->next;
    if (lane_head_ == nullptr) {
      lane_tail_ = nullptr;
    } else {
      lane_timer_.arm_keyed_abs(lane_head_->t, lane_head_->seq);
    }
    --lane_len_;
    const std::uint32_t epoch = r->epoch;
    const bool corrupt = r->corrupt;
    PacketPtr p = PacketPtr::adopt(r->pkt);
    r->pkt = nullptr;
    LanePool::local().release(r);
    arrive(std::move(p), epoch, corrupt, sim_);

    // Same-time run coalescing: deliver the next record without a heap
    // round trip iff it is due NOW and nothing else anywhere in the
    // simulation precedes it.  The armed timer IS the candidate heap top,
    // so it is pulled out before probing.
    LaneRecord* next = lane_head_;
    if (next == nullptr || next->t != sim_.now()) return;
    lane_timer_.cancel();
    if (!sim_.lane_may_run(next->t, next->seq)) {
      lane_timer_.arm_keyed_abs(next->t, next->seq);
      return;
    }
    sim_.note_coalesced_event(next->t, next->seq);  // counts as the event a heap pop would be
    r = next;
  }
}

void Channel::make_cut_edge(Simulator& dst_sim) {
  cross_dst_sim_ = &dst_sim;
  if (cross_timer_ == nullptr) {
    cross_timer_ = std::make_unique<Timer>(dst_sim, [this] { cross_arrive_next(); });
  }
}

bool Channel::commit_stamps(const SeqRemap& remap) {
  // The lane head's heap mirror is relabeled by end_shard_window; the
  // records behind it are re-armed from these stamps as the head fires.
  for (LaneRecord* r = lane_head_; r != nullptr; r = r->next) r->seq = remap(r->seq);
  for (CrossRecord& r : outbox_) r.seq = remap(r.seq);
  return !outbox_.empty();
}

std::size_t Channel::drain() {
  const std::size_t moved = outbox_.size();
  auto earlier = [](const CrossRecord& a, const CrossRecord& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  };
  // Sort the committed batch once: delivery times are near-monotone (the
  // clock advances; only serialization backlog reorders), so this is
  // almost always a no-op pass.
  std::sort(outbox_.begin(), outbox_.end(), earlier);
  // Drop the consumed prefix, then splice the batch in one merge pass —
  // leftover records (arrival times beyond the windows run so far) stay
  // sorted relative to the newcomers.
  if (inbox_head_ > 0) {
    inbox_.erase(inbox_.begin(), inbox_.begin() + static_cast<std::ptrdiff_t>(inbox_head_));
    inbox_head_ = 0;
  }
  const std::size_t mid = inbox_.size();
  inbox_.insert(inbox_.end(), std::make_move_iterator(outbox_.begin()),
                std::make_move_iterator(outbox_.end()));
  std::inplace_merge(inbox_.begin(), inbox_.begin() + static_cast<std::ptrdiff_t>(mid),
                     inbox_.end(), earlier);
  outbox_.clear();
  // Mirror the (possibly new) head: one heap entry per channel, not per
  // record.  Re-arming with an existing key never consumes a sequence.
  cross_timer_->arm_keyed_abs(inbox_.front().t, inbox_.front().seq);
  return moved;
}

void Channel::cross_arrive_next() {
  // The timer fires with the head's exact (t, seq); re-arm for the next
  // record BEFORE dispatching, preserving "records pending => timer armed
  // with the head's key".
  assert(inbox_head_ < inbox_.size());
  CrossRecord rec = std::move(inbox_[inbox_head_]);
  ++inbox_head_;
  if (inbox_head_ == inbox_.size()) {
    inbox_.clear();
    inbox_head_ = 0;
  } else {
    cross_timer_->arm_keyed_abs(inbox_[inbox_head_].t, inbox_[inbox_head_].seq);
  }
  // Re-pool on the destination shard's thread, then run the shared far-end
  // logic on the destination simulator.
  arrive(PacketPtr::make(std::move(rec.pkt)), rec.epoch, rec.corrupt, *cross_dst_sim_);
}

void Channel::checkpoint(StateIO& io) {
  io.label(0xC4A17E1u);
  io.pod(up_);
  io.pod(drop_in_flight_on_cut_);
  io.pod(cut_epoch_);
  io.pod(delivered_packets_);
  io.pod(discarded_packets_);
  io.pod(in_flight_dropped_);
  if (io.saving() && !outbox_.empty()) {
    io.fail("channel outbox non-empty at snapshot (not a barrier-safe point)");
    return;
  }

  // Delivery lane, in FIFO order.  The lane timer's arm is derivable (it
  // always mirrors the head's key), so it is re-armed rather than saved.
  std::uint64_t n = lane_len_;
  io.pod(n);
  if (io.saving()) {
    for (LaneRecord* r = lane_head_; r != nullptr; r = r->next) {
      Time t = r->t;
      std::uint64_t seq = r->seq;
      std::uint32_t epoch = r->epoch;
      std::uint8_t corrupt = r->corrupt ? 1 : 0;
      io.pod(t);
      io.pod(seq);
      io.pod(epoch);
      io.pod(corrupt);
      io.pod(*r->pkt);
    }
  } else {
    if (lane_head_ != nullptr) {
      io.fail("restore target lane non-empty");
      return;
    }
    for (std::uint64_t i = 0; i < n && io.ok(); ++i) {
      Time t = 0;
      std::uint64_t seq = 0;
      std::uint32_t epoch = 0;
      std::uint8_t corrupt = 0;
      Packet flat;
      io.pod(t);
      io.pod(seq);
      io.pod(epoch);
      io.pod(corrupt);
      io.pod(flat);
      if (!io.ok()) break;
      LaneRecord* r = LanePool::local().acquire();
      r->t = t;
      r->seq = seq;
      r->epoch = epoch;
      r->corrupt = corrupt != 0;
      r->pkt = PacketPtr::make(flat).release_raw();
      r->next = nullptr;
      if (lane_head_ == nullptr) {
        lane_head_ = lane_tail_ = r;
      } else {
        lane_tail_->next = r;
        lane_tail_ = r;
      }
      ++lane_len_;
    }
    if (io.ok() && lane_head_ != nullptr) {
      lane_timer_.arm_keyed_abs(lane_head_->t, lane_head_->seq);
    }
  }

  // Cross-shard inbox: the consumed prefix is dead state; the live suffix
  // is already in canonical ascending (t, seq) order, so a re-save
  // reproduces the image byte-for-byte.
  auto rec_io = [&io](CrossRecord& r) {
    io.pod(r.t);
    io.pod(r.seq);
    io.pod(r.epoch);
    io.pod(r.corrupt);
    io.pod(r.pkt);
  };
  std::uint64_t m = inbox_.size() - inbox_head_;
  io.pod(m);
  if (io.saving()) {
    for (std::size_t i = inbox_head_; i < inbox_.size(); ++i) rec_io(inbox_[i]);
    return;
  }
  if (io.ok() && (!inbox_.empty() || inbox_head_ != 0)) {
    io.fail("restore target wire non-empty");
  }
  for (std::uint64_t i = 0; i < m && io.ok(); ++i) {
    CrossRecord r;
    rec_io(r);
    if (!io.ok()) break;
    if (cross_timer_ == nullptr) {
      io.fail("cross records without a destination shard");
      break;
    }
    inbox_.push_back(std::move(r));
  }
  // One heap entry mirrors the head, exactly as drain() leaves it.
  if (io.ok() && !inbox_.empty()) {
    cross_timer_->arm_keyed_abs(inbox_.front().t, inbox_.front().seq);
  }
}

std::size_t Channel::lane_doomed_pending() const {
  std::size_t doomed = 0;
  for (const LaneRecord* r = lane_head_; r != nullptr; r = r->next) {
    if (r->epoch != cut_epoch_) ++doomed;
  }
  return doomed;
}

}  // namespace dcp
