#pragma once
// Delivery-lane records: the per-link FIFO nodes of the two-level scheduler.
//
// A Channel with fixed bandwidth and propagation delivers strictly FIFO, so
// per-packet entries in the global heap are wasted ordering work.  Instead
// each in-flight packet becomes a LaneRecord — stamped at deliver() time
// with its absolute arrival time and a global tie-break sequence — linked
// into the channel's intrusive FIFO.  Only the lane head occupies the heap
// (via a persistent Timer keyed with the head's exact (t, seq)), so heap
// size tracks active links, not packets in flight.
//
// Records come from the thread-local slab pool that also holds packets:
// steady-state traffic performs zero heap allocations, and simulations on
// different threads never contend.

#include <cstdint>

#include "net/packet.h"
#include "net/slab_pool.h"
#include "sim/time.h"

namespace dcp {

/// One in-flight packet parked in a channel's delivery lane.  The record
/// owns its pooled slot (taken from PacketPtr via release_raw) until the
/// lane fires or drains it.
struct LaneRecord {
  Time t = 0;                // absolute delivery time at the far end
  std::uint64_t seq = 0;     // global tie-break, stamped at deliver() time
  Packet* pkt = nullptr;     // pooled packet (owned while parked)
  LaneRecord* next = nullptr;
  std::uint32_t epoch = 0;  // channel cut_epoch_ at send; mismatch = doomed
  bool corrupt = false;     // CRC failure decided at send, applied at arrival
};

/// Thread-local freelist of LaneRecords (see net/slab_pool.h).
using LanePool = SlabPool<LaneRecord>;

}  // namespace dcp
