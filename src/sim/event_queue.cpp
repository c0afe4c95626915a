#include "sim/event_queue.h"

// The per-event hot path (push / pop_and_run / timer_arm_* / the sift
// helpers) lives inline in event_queue.h so callers compile it into their
// own loops; only cold maintenance is out of line here.

namespace dcp {

void EventQueue::grow() {
  const auto base = static_cast<std::uint32_t>(gen_.size());
  chunks_.push_back(std::make_unique<EventCallback[]>(kChunkSize));
  gen_.resize(base + kChunkSize, 0);
  pos_.resize(base + kChunkSize, kNoPos);
  persistent_.resize(base + kChunkSize, 0);
  in_dheap_.resize(base + kChunkSize, 0);
  deadline_.resize(base + kChunkSize, kTimeInfinity);
  free_.reserve(free_.size() + kChunkSize);
  // Reversed so the lowest index is handed out first.
  for (std::uint32_t i = kChunkSize; i > 0; --i) {
    free_.push_back(base + i - 1);
  }
}

std::uint32_t EventQueue::timer_create(EventCallback fn) {
  const std::uint32_t idx = alloc_slot();
  fn_of(idx) = std::move(fn);
  persistent_[idx] = 1;
  return idx;
}

void EventQueue::timer_destroy(std::uint32_t timer) {
  if (timer == deferred_root_) {
    // Destroyed from its own callback: the spent root still references
    // this slot, and the slot may be recycled before the deferred cleanup
    // in pop_and_run runs — remove the entry now.
    deferred_root_ = kNoPos;
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_root_to_bottom(heap_, last);
  }
  if (pos_[timer] != kNoPos) {
    if (in_dheap_[timer]) {
      remove_from_heap(dheap_, pos_[timer]);
      pos_[timer] = kNoPos;
      settle_dtop();
    } else {
      remove_from_heap(heap_, pos_[timer]);
      pos_[timer] = kNoPos;
    }
  }
  in_dheap_[timer] = 0;
  deadline_[timer] = kTimeInfinity;
  fn_of(timer).reset();
  persistent_[timer] = 0;
  release(timer);
}

void EventQueue::list(StampHolder& holder) {
  holder.listed_ = true;
  holders_.push_back(&holder);
}

void EventQueue::end_shard_window(const std::vector<std::uint64_t>& committed,
                                  std::vector<StampHolder*>& drains) {
  shard_log_ = nullptr;
  const SeqRemap remap{&committed};
  for (HeapEntry& e : heap_) e.seq = remap(e.seq);
  for (HeapEntry& e : dheap_) e.seq = remap(e.seq);
  for (StampHolder* h : holders_) {
    h->listed_ = false;
    if (h->commit_stamps(remap)) drains.push_back(h);
  }
  holders_.clear();
}

}  // namespace dcp
