#include "core/tracking.h"

#include <cassert>

namespace dcp {

// ---------------------------------------------------------------------------
// MessageLayout
// ---------------------------------------------------------------------------

MessageLayout::MessageLayout(std::uint64_t bytes, std::uint64_t msg_size) : flow_bytes(bytes) {
  const std::uint64_t msg_bytes =
      (msg_size == 0 || msg_size >= bytes) ? (bytes == 0 ? 1 : bytes) : msg_size;
  // Round the message size to whole packets so PSN -> MSN is a division.
  const std::uint64_t pkts_full = (msg_bytes + kMtuPayload - 1) / kMtuPayload;
  pkts_per_full_msg = static_cast<std::uint32_t>(pkts_full == 0 ? 1 : pkts_full);
  total_pkts = static_cast<std::uint32_t>((bytes + kMtuPayload - 1) / kMtuPayload);
  if (total_pkts == 0) total_pkts = 1;
  num_msgs = (total_pkts + pkts_per_full_msg - 1) / pkts_per_full_msg;
  if (num_msgs == 0) num_msgs = 1;
}

// ---------------------------------------------------------------------------
// BdpBitmapTracker
// ---------------------------------------------------------------------------

BdpBitmapTracker::BdpBitmapTracker(std::uint32_t window_pkts)
    : bits_((window_pkts + 63) / 64, 0), window_(window_pkts) {}

int BdpBitmapTracker::on_packet(std::uint32_t psn) {
  // Step 1: address = head + offset; step 2: access the slot.
  const std::uint32_t slot = psn % window_;
  bits_[slot / 64] |= (1ull << (slot % 64));
  return 2;
}

bool BdpBitmapTracker::is_received(std::uint32_t psn) const {
  const std::uint32_t slot = psn % window_;
  return (bits_[slot / 64] >> (slot % 64)) & 1u;
}

void BdpBitmapTracker::advance_head(std::uint32_t psn) {
  // Clear the slots that fell out of the window so they can be reused.
  for (std::uint32_t p = head_; p < psn; ++p) {
    const std::uint32_t slot = p % window_;
    bits_[slot / 64] &= ~(1ull << (slot % 64));
  }
  head_ = psn;
}

std::uint64_t BdpBitmapTracker::memory_bytes() const { return bits_.size() * 8; }

// ---------------------------------------------------------------------------
// LinkedChunkTracker
// ---------------------------------------------------------------------------

LinkedChunkTracker::LinkedChunkTracker(std::uint32_t max_window_pkts)
    : max_window_(max_window_pkts) {
  chunks_.emplace_back();  // every QP is pre-allocated one chunk
}

std::pair<int, int> LinkedChunkTracker::walk_to(std::uint32_t offset, bool allocate) {
  assert(offset < max_window_);
  int steps = 1;  // reading the head pointer / first chunk
  int idx = head_chunk_;
  std::uint32_t chunk_no = offset / kChunkBits;
  while (chunk_no > 0) {
    if (chunks_[idx].next < 0) {
      if (!allocate) return {-1, steps};
      chunks_[idx].next = static_cast<int>(chunks_.size());
      chunks_.emplace_back();
    }
    idx = chunks_[idx].next;
    ++steps;  // pointer chase
    --chunk_no;
  }
  return {idx, steps};
}

int LinkedChunkTracker::on_packet(std::uint32_t psn) {
  const std::uint32_t offset = psn - head_;
  auto [idx, steps] = walk_to(offset, /*allocate=*/true);
  const std::uint32_t bit = offset % kChunkBits;
  chunks_[idx].bits[bit / 64] |= (1ull << (bit % 64));
  return steps + 1;  // final bit access
}

bool LinkedChunkTracker::is_received(std::uint32_t psn) const {
  if (psn < head_) return true;  // below the head everything was delivered
  const std::uint32_t offset = psn - head_;
  int idx = head_chunk_;
  for (std::uint32_t c = offset / kChunkBits; c > 0; --c) {
    idx = chunks_[idx].next;
    if (idx < 0) return false;
  }
  const std::uint32_t bit = offset % kChunkBits;
  return (chunks_[idx].bits[bit / 64] >> (bit % 64)) & 1u;
}

void LinkedChunkTracker::advance_head(std::uint32_t psn) {
  // Release whole chunks the head has passed.  Freed chunks return to the
  // pool conceptually; we model the footprint as the live chain length, so
  // we just rebase.  (Chunk reuse bookkeeping is not the measured cost.)
  while (psn >= head_ + kChunkBits && chunks_[head_chunk_].next >= 0) {
    const int next = chunks_[head_chunk_].next;
    chunks_[head_chunk_] = Chunk{};  // recycle in place: swap semantics
    head_chunk_ = next;
    head_ += kChunkBits;
  }
  if (psn > head_) {
    // Partial advance within the head chunk: clear passed bits.
    for (std::uint32_t p = head_; p < psn; ++p) {
      const std::uint32_t bit = p - head_;
      if (bit >= kChunkBits) break;
      chunks_[head_chunk_].bits[bit / 64] &= ~(1ull << (bit % 64));
    }
  }
}

std::uint64_t LinkedChunkTracker::memory_bytes() const {
  // Live chain length from the head.
  std::uint64_t live = 0;
  for (int idx = head_chunk_; idx >= 0; idx = chunks_[idx].next) ++live;
  return live * (kChunkBits / 8 + 4);  // 16B bits + next pointer
}

// ---------------------------------------------------------------------------
// MessageCounterTracker
// ---------------------------------------------------------------------------

MessageCounterTracker::MessageCounterTracker(const MessageLayout& layout,
                                             std::uint32_t outstanding)
    : layout_(layout), state_(outstanding), outstanding_(outstanding) {}

bool MessageCounterTracker::count_packet(std::uint32_t msn) {
  if (msn < emsn_ || msn >= emsn_ + outstanding_ || msn >= layout_.num_msgs) return false;
  MsgState& st = state_[msn % outstanding_];
  if (st.mcf) return false;  // already complete ("exactly once" makes this rare)
  ++st.counter;
  if (st.counter >= layout_.msg_pkts(msn)) {
    st.mcf = true;
    st.cf = true;
    // Advance eMSN across completed messages, recycling their slots.
    while (emsn_ < layout_.num_msgs && state_[emsn_ % outstanding_].mcf) {
      state_[emsn_ % outstanding_] = MsgState{};
      ++emsn_;
    }
  }
  return true;  // the packet was counted
}

void MessageCounterTracker::reset_message(std::uint32_t msn) {
  if (msn < emsn_ || msn >= emsn_ + outstanding_) return;
  state_[msn % outstanding_] = MsgState{};
}

int MessageCounterTracker::on_packet(std::uint32_t psn) {
  // Locate the message (uniform sizes in hardware: a divide), bump counter.
  count_packet(layout_.msn_of_psn(psn));
  return 1;  // single counter increment — constant, PSN-independent
}

bool MessageCounterTracker::is_received(std::uint32_t psn) const {
  // Message-granular knowledge only: true iff the covering message is done.
  return message_complete(layout_.msn_of_psn(psn));
}

bool MessageCounterTracker::message_complete(std::uint32_t msn) const {
  if (msn < emsn_) return true;
  if (msn >= emsn_ + outstanding_ || msn >= layout_.num_msgs) return false;
  return state_[msn % outstanding_].mcf;
}

std::uint64_t MessageCounterTracker::memory_bytes() const {
  // 14-bit counter + mcf + cf = 2 bytes per tracked message (paper §4.5).
  return outstanding_ * 2;
}

double packet_rate_mpps(double clock_mhz, double steps_per_packet) {
  return clock_mhz / steps_per_packet;
}

}  // namespace dcp
