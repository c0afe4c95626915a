#pragma once
// Receiver-side packet tracking structures (paper §4.5, Fig. 6).
//
// Three real implementations with explicit step accounting so Table 3
// (memory) and Fig. 7 (theoretical packet rate vs. OOO degree) are
// measured from the code rather than asserted:
//
//  (a) BdpBitmapTracker    — fixed BDP-sized bitmap per QP: O(1) access,
//                            BDP/MTU bits of SRAM per QP;
//  (b) LinkedChunkTracker  — chunk pool of 128-bit chunks linked on demand:
//                            memory grows with OOO degree, access to the
//                            n-th chunk costs O(n) steps;
//  (c) MessageCounterTracker — DCP's bitmap-free scheme: a multi-bit packet
//                            counter + mcf/cf flags per in-flight message,
//                            constant steps, log2(n) bits.
//
// "Steps" count the sequential dependent accesses a 300 MHz pipeline would
// make: the structures are exercised for real and report their own cost.
//
// All three offer the same calls, used through templates: on_packet(psn)
// marks a PSN received and returns the steps it took; is_received(psn);
// advance_head(psn) says PSNs below `psn` will never be queried again; and
// memory_bytes() is the on-NIC memory currently committed.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.h"

namespace dcp {

/// Per-flow message geometry shared by the two ends and the counter
/// tracker: the flow is split into messages of msg_size bytes rounded to
/// whole packets (0 = single message), the last one possibly short.
struct MessageLayout {
  std::uint64_t flow_bytes = 0;
  std::uint32_t num_msgs = 1;
  std::uint32_t pkts_per_full_msg = 1;
  std::uint32_t total_pkts = 1;

  MessageLayout() = default;
  MessageLayout(std::uint64_t bytes, std::uint64_t msg_size);

  std::uint32_t msn_of_psn(std::uint32_t psn) const {
    const std::uint32_t m = psn / pkts_per_full_msg;
    return m >= num_msgs ? num_msgs - 1 : m;
  }
  std::uint32_t msg_start_psn(std::uint32_t msn) const { return msn * pkts_per_full_msg; }
  std::uint32_t msg_pkts(std::uint32_t msn) const {
    if (msn + 1 < num_msgs) return pkts_per_full_msg;
    return total_pkts - msg_start_psn(num_msgs - 1);
  }
  /// Application bytes carried by message `msn` (tail may be short).
  std::uint64_t msg_bytes_of(std::uint32_t msn) const {
    const std::uint64_t start = static_cast<std::uint64_t>(msg_start_psn(msn)) * kMtuPayload;
    const std::uint64_t end = std::min<std::uint64_t>(
        flow_bytes, start + static_cast<std::uint64_t>(msg_pkts(msn)) * kMtuPayload);
    return end > start ? end - start : 0;
  }
};

/// (a) Fixed BDP-sized bitmap.
class BdpBitmapTracker {
 public:
  explicit BdpBitmapTracker(std::uint32_t window_pkts);

  int on_packet(std::uint32_t psn);
  bool is_received(std::uint32_t psn) const;
  void advance_head(std::uint32_t psn);
  std::uint64_t memory_bytes() const;

 private:
  std::vector<std::uint64_t> bits_;  // circular bitmap
  std::uint32_t window_;
  std::uint32_t head_ = 0;  // lowest tracked PSN
};

/// (b) Linked chunks of 128 bits allocated from a pool on demand.
class LinkedChunkTracker {
 public:
  static constexpr std::uint32_t kChunkBits = 128;

  explicit LinkedChunkTracker(std::uint32_t max_window_pkts = 1u << 20);

  int on_packet(std::uint32_t psn);
  bool is_received(std::uint32_t psn) const;
  void advance_head(std::uint32_t psn);
  std::uint64_t memory_bytes() const;

 private:
  struct Chunk {
    std::uint64_t bits[2] = {0, 0};
    int next = -1;  // pool index of the next chunk
  };
  /// Walks (allocating as needed) to the chunk covering `offset`; the walk
  /// length is the access cost.  Returns {pool index, steps}.
  std::pair<int, int> walk_to(std::uint32_t offset, bool allocate);

  std::vector<Chunk> chunks_;  // pool; index 0 is the QP's pre-allocated chunk
  int head_chunk_ = 0;
  std::uint32_t head_ = 0;  // PSN at bit 0 of the head chunk
  std::uint32_t max_window_;
};

/// (c) DCP's bitmap-free per-message counting.
class MessageCounterTracker {
 public:
  /// `outstanding` bounds the number of simultaneously tracked messages
  /// (NCCL default: 8).
  MessageCounterTracker(const MessageLayout& layout, std::uint32_t outstanding);

  int on_packet(std::uint32_t psn);
  bool is_received(std::uint32_t psn) const;  // message-granular
  void advance_head(std::uint32_t /*psn*/) {}
  std::uint64_t memory_bytes() const;

  bool message_complete(std::uint32_t msn) const;
  std::uint32_t emsn() const { return emsn_; }

  /// Direct message-level interface used by the DCP receiver.
  /// Returns true if the packet was counted (false: stale/duplicate/out of
  /// window).  eMSN advances internally; observe it via emsn().
  bool count_packet(std::uint32_t msn);
  void reset_message(std::uint32_t msn);

  /// Checkpoint hook (sim/snapshot.h): the counter ring and eMSN cursor
  /// (the layout is rebuilt from the flow spec).  A load whose ring size or
  /// eMSN does not fit the flow fails the stream.
  template <typename IO>
  void checkpoint(IO& io) {
    io.vec(state_);
    io.pod(emsn_);
    if (io.saving() || !io.ok()) return;
    if (state_.size() != outstanding_ || emsn_ > layout_.num_msgs) {
      io.fail("counter tracker: ring size or eMSN outside the flow");
    }
  }

 private:
  struct MsgState {
    std::uint32_t counter = 0;  // 14-bit in hardware
    bool mcf = false;           // message completion flag
    bool cf = false;            // CQE flag
  };

  MessageLayout layout_;
  std::vector<MsgState> state_;  // ring of `outstanding` entries
  std::uint32_t outstanding_;
  std::uint32_t emsn_ = 0;
};

/// Theoretical packet rate (Mpps) for a tracker whose per-packet cost is
/// `steps`, on a `clock_mhz` pipeline that completes one step per cycle.
double packet_rate_mpps(double clock_mhz, double steps_per_packet);

}  // namespace dcp
