#pragma once
// The pool of in-flight packets and the owning handle that moves them
// through the datapath.
//
// The seed simulator copied the Packet struct at every stage of every hop:
// into the egress FifoQueue, out of it, into the delivery closure (which
// std::function heap-allocated), and into the receiver.  With the pool, a
// packet is copied once at injection into a 64-byte-aligned slot, and then
// a single 8-byte PacketPtr travels through queues, events and channels;
// dropping a packet (tail-drop, link down, trim-refused) is just letting
// the handle die, which recycles the slot.  Each slot starts a cache line,
// so the per-hop prefix of the record (net/packet.h) is one line.

#include "net/packet.h"
#include "net/slab_pool.h"

namespace dcp {

using PacketPool = SlabPool<Packet, 64>;

static_assert(alignof(PacketPool::Slot) == 64 && sizeof(PacketPool::Slot) == 128,
              "pool slots must start a cache line, and a Packet must fit two");

/// Move-only owning handle to a pooled packet.  8 bytes; returns the slot
/// to the thread-local pool when it goes out of scope.
class PacketPtr {
 public:
  PacketPtr() = default;

  /// A pooled copy of `src` (a default packet when omitted), made once at
  /// injection into the datapath.
  static PacketPtr make(const Packet& src = Packet{}) {
    PacketPtr p(PacketPool::local().acquire());
    *p.p_ = src;
    return p;
  }

  PacketPtr(PacketPtr&& other) noexcept : p_(other.p_) { other.p_ = nullptr; }
  PacketPtr& operator=(PacketPtr&& other) noexcept {
    if (this != &other) {
      reset();
      p_ = other.p_;
      other.p_ = nullptr;
    }
    return *this;
  }
  PacketPtr(const PacketPtr&) = delete;
  PacketPtr& operator=(const PacketPtr&) = delete;
  ~PacketPtr() { reset(); }

  void reset() {
    if (p_ != nullptr) {
      PacketPool::local().release(p_);
      p_ = nullptr;
    }
  }

  Packet& operator*() const { return *p_; }
  Packet* operator->() const { return p_; }
  Packet* get() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }

  /// Detaches the raw pooled pointer without releasing it — for intrusive
  /// structures (delivery-lane records) that park packets outside a handle.
  /// The caller owns the slot until it re-wraps it with adopt().
  Packet* release_raw() {
    Packet* p = p_;
    p_ = nullptr;
    return p;
  }

  /// Re-wraps a pointer previously taken via release_raw().
  static PacketPtr adopt(Packet* p) { return PacketPtr(p); }

 private:
  explicit PacketPtr(Packet* p) : p_(p) {}

  Packet* p_ = nullptr;
};

static_assert(sizeof(PacketPtr) == sizeof(void*), "the datapath handle must stay 8 bytes");

}  // namespace dcp
