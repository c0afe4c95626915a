#pragma once
// The per-QP retransmission queue of HO-based retransmission (paper §4.3).
//
// HO packets are stateless, so loss events must be queued.  The queue
// lives in *host memory* (allocated alongside SQ/RQ/CQ, managed solely by
// the RNIC, no CPU involvement) and the RNIC fetches entries in batches of
// up to 16 over PCIe — one PCIe round trip amortized across the batch,
// which is the microarchitectural fix for challenge #1 (one-PCIe-RTT-per-
// packet retransmission would cap goodput at ~4 Gbps).

#include <algorithm>
#include <cstdint>

#include "sim/ring.h"

namespace dcp {

class RetransQ {
 public:
  struct Entry {
    std::uint32_t msn = 0;
    std::uint32_t psn = 0;
  };

  /// RNIC Rx path: DMA-writes a retransmission entry to host memory.
  void push(Entry e) {
    host_q_.push_back(e);
    total_pushed_++;
    if (host_q_.size() > max_len_) max_len_ = host_q_.size();
  }

  /// Host-memory queue length (mirrored in the QPC in hardware).
  std::size_t len() const { return host_q_.size(); }
  bool host_empty() const { return host_q_.empty(); }

  /// Completes a PCIe batch fetch: moves up to `batch` entries into the
  /// on-NIC staging buffer.  Returns the number fetched.
  std::size_t fetch_to_staging(std::size_t batch) {
    std::size_t n = 0;
    while (n < batch && !host_q_.empty()) {
      staging_.push_back(host_q_.front());
      host_q_.pop_front();
      ++n;
    }
    fetches_ += n > 0 ? 1 : 0;
    return n;
  }

  bool staging_empty() const { return staging_.empty(); }
  std::size_t staging_len() const { return staging_.size(); }
  const Entry& peek_staged() const { return staging_.front(); }
  Entry pop_staged() {
    Entry e = staging_.front();
    staging_.pop_front();
    return e;
  }

  /// True when `pred` holds for every queued entry, fetched or not.
  template <typename Pred>
  bool all_of(Pred pred) const {
    return std::all_of(host_q_.begin(), host_q_.end(), pred) &&
           std::all_of(staging_.begin(), staging_.end(), pred);
  }

  std::uint64_t total_pushed() const { return total_pushed_; }
  std::uint64_t pcie_fetches() const { return fetches_; }
  std::size_t max_len() const { return max_len_; }

  /// Checkpoint hook (sim/snapshot.h): both queues plus the counters.
  template <typename IO>
  void checkpoint(IO& io) {
    io.ring(host_q_);
    io.ring(staging_);
    io.pod(total_pushed_);
    io.pod(fetches_);
    io.pod(max_len_);
  }

 private:
  Ring<Entry> host_q_;   // in host memory
  Ring<Entry> staging_;  // on-NIC, already fetched
  std::uint64_t total_pushed_ = 0;
  std::uint64_t fetches_ = 0;
  std::size_t max_len_ = 0;
};

}  // namespace dcp
