// SlabPool's slow paths, instantiated for the two pools.  They stay out of
// the header on purpose: inlined into every acquire and release, the
// thread-local lookup bloated the per-hop functions and made bench_core's
// micro_switch_receive 10% or more slower.

#include "net/slab_pool.h"

#include <algorithm>
#include <mutex>

#include "net/lane.h"
#include "net/packet_pool.h"

namespace dcp {

/// Dead threads' slabs and unclaimed slots.  Touched only on pool growth
/// and thread exit, so one mutex is enough.
template <typename T, std::size_t Align>
struct SlabPool<T, Align>::Retired {
  std::mutex mu;
  std::vector<std::unique_ptr<Slot[]>> chunks;
  std::vector<T*> free;
};

template <typename T, std::size_t Align>
typename SlabPool<T, Align>::Retired& SlabPool<T, Align>::retired() {
  static Retired r;
  return r;
}

template <typename T, std::size_t Align>
SlabPool<T, Align>& SlabPool<T, Align>::local() {
  thread_local SlabPool pool;
  return pool;
}

template <typename T, std::size_t Align>
SlabPool<T, Align>::~SlabPool() {
  // A never-grown pool has nothing to donate, and skipping the store keeps
  // process exit from constructing it.
  if (chunks_.empty() && free_.empty()) return;
  Retired& r = retired();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& c : chunks_) r.chunks.push_back(std::move(c));
  r.free.insert(r.free.end(), free_.begin(), free_.end());
}

template <typename T, std::size_t Align>
void SlabPool<T, Align>::grow() {
  {
    Retired& r = retired();
    std::lock_guard<std::mutex> lock(r.mu);
    const std::size_t n = std::min(r.free.size(), next_chunk_);
    if (n > 0) {
      // The backing slabs stay owned by the store.
      free_.insert(free_.end(), r.free.end() - static_cast<std::ptrdiff_t>(n), r.free.end());
      r.free.resize(r.free.size() - n);
      slots_ += n;
      return;
    }
  }
  // Slabs grow geometrically (512 slots doubling to a 64Ki cap): a 10k-host
  // fat-tree with ~1M packets in flight takes ~30 slab allocations instead
  // of ~2000, while small runs keep a small footprint.
  const std::size_t n = next_chunk_;
  chunks_.push_back(std::make_unique<Slot[]>(n));
  Slot* base = chunks_.back().get();
  free_.reserve(free_.size() + n);
  // Reversed so the lowest address is handed out first.
  for (std::size_t i = n; i > 0; --i) free_.push_back(&base[i - 1].value);
  slots_ += n;
  if (next_chunk_ < 65536) next_chunk_ *= 2;
}

template class SlabPool<Packet, 64>;
template class SlabPool<LaneRecord>;

}  // namespace dcp
