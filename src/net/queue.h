#pragma once
// FIFO packet queue with byte accounting, used for every egress queue class.
// Stores pooled packet handles: pushing and popping moves 8 bytes, not the
// 96-byte Packet struct.

#include <cstdint>
#include <deque>
#include <utility>

#include "net/packet.h"
#include "net/packet_pool.h"

namespace dcp {

class FifoQueue {
 public:
  void push(PacketPtr pkt) {
    bytes_ += pkt->wire_bytes;
    max_bytes_seen_ = bytes_ > max_bytes_seen_ ? bytes_ : max_bytes_seen_;
    q_.push_back(std::move(pkt));
  }
  /// Convenience for tests/benches that build packets by value.
  void push(Packet pkt) { push(PacketPtr::make(std::move(pkt))); }

  PacketPtr pop() {
    PacketPtr p = std::move(q_.front());
    q_.pop_front();
    bytes_ -= p->wire_bytes;
    return p;
  }

  const Packet& front() const { return *q_.front(); }
  bool empty() const { return q_.empty(); }
  std::size_t packets() const { return q_.size(); }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t max_bytes_seen() const { return max_bytes_seen_; }

  /// Checkpoint hook (sim/snapshot.h): queued packets in FIFO order;
  /// byte accounting is rebuilt by re-pushing.
  template <typename IO>
  void checkpoint(IO& io) {
    std::uint64_t n = q_.size();
    io.pod(n);
    if (io.saving()) {
      for (PacketPtr& p : q_) io.pod(*p);
    } else {
      if (!q_.empty()) {
        io.fail("restore target FIFO queue non-empty");
        return;
      }
      for (std::uint64_t i = 0; i < n && io.ok(); ++i) {
        Packet flat;
        io.pod(flat);
        if (io.ok()) push(PacketPtr::make(flat));
      }
    }
    io.pod(max_bytes_seen_);
  }

 private:
  std::deque<PacketPtr> q_;
  std::uint64_t bytes_ = 0;
  std::uint64_t max_bytes_seen_ = 0;
};

}  // namespace dcp
