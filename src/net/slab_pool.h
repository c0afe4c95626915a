#pragma once
// A thread-local chunked freelist of fixed-size records: the one allocator
// behind pooled packets (PacketPool) and delivery-lane records (LanePool).
//
// Each thread has its own pool, so simulations on different threads never
// contend, while simulations on one thread share a freelist (harmless:
// records are plain value state and nothing depends on slot addresses).
// Slabs are chunked and never shrink, so the steady-state acquire/release
// cycle performs zero heap allocations.
//
// A record can outlive the thread that acquired it: a shard worker's
// packets and lane records can still be parked in queues when the
// ShardGroup joins the thread, and teardown then releases them on the
// coordinator, into *its* freelist.  So a dying pool does not free its
// slabs: it donates them, with the slots it still holds, to a process-wide
// retired store that keeps every outstanding pointer valid for the life of
// the process.  A pool that must grow reclaims retired slots before it
// allocates a fresh slab, so creating and destroying shard groups recycles
// memory rather than accumulating it.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace dcp {

/// `Align` rounds every slot up to that alignment (64: each record starts
/// its own cache line).
template <typename T, std::size_t Align = alignof(T)>
class SlabPool {
  static_assert(std::is_trivially_copyable_v<T>,
                "pooled records must stay plain value types: slots are recycled "
                "by assignment and destructors never run");

 public:
  struct alignas(Align) Slot {
    T value;
  };

  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t releases = 0;
    std::size_t slots = 0;   // total slots ever allocated or reclaimed
    std::size_t in_use = 0;  // currently checked out
  };

  /// The calling thread's pool.
  static SlabPool& local();

  SlabPool() = default;
  ~SlabPool();
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  T* acquire() {
    if (free_.empty()) grow();
    T* p = free_.back();
    free_.pop_back();
    ++acquires_;
    return p;
  }

  void release(T* p) {
    ++releases_;
    free_.push_back(p);
  }

  Stats stats() const {
    // Cross-thread teardown releases can park foreign-slab slots in this
    // freelist, so clamp rather than underflow.
    return Stats{acquires_, releases_, slots_,
                 free_.size() >= slots_ ? 0 : slots_ - free_.size()};
  }

  /// Slab footprint of every slot this pool holds, including slots
  /// reclaimed from the retired store (their slabs live there, but the
  /// memory is held on this pool's behalf).
  std::uint64_t arena_bytes() const { return static_cast<std::uint64_t>(slots_) * sizeof(Slot); }

 private:
  struct Retired;
  static Retired& retired();
  void grow();

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<T*> free_;
  std::size_t slots_ = 0;  // owned + reclaimed (chunk sizes vary)
  std::size_t next_chunk_ = 512;  // slots in the next fresh slab
  std::uint64_t acquires_ = 0;
  std::uint64_t releases_ = 0;
};

}  // namespace dcp
