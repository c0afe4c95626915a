#include "transports/selective_repeat.h"

#include <algorithm>

#include "sim/snapshot.h"

namespace dcp {

// --- RetxQueue -------------------------------------------------------------

bool RetxQueue::push(std::uint32_t psn) {
  if (pending_[psn]) return false;
  pending_[psn] = true;
  ++count_;
  if (psn < scan_) scan_ = psn;
  return true;
}

std::uint32_t RetxQueue::pop() {
  // A non-empty queue holds a set bit at or above scan_.
  while (!pending_[scan_]) ++scan_;
  pending_[scan_] = false;
  --count_;
  return scan_;
}

void RetxQueue::remove(std::uint32_t psn) {
  if (!pending_[psn]) return;
  pending_[psn] = false;
  --count_;
}

void RetxQueue::checkpoint(StateIO& io) {
  const std::size_t psns = pending_.size();
  io.vbool(pending_);
  if (io.saving() || !io.ok()) return;
  if (pending_.size() != psns) return io.fail("retx queue: bitmap size mismatch");
  count_ = static_cast<std::uint32_t>(std::count(pending_.begin(), pending_.end(), true));
  scan_ = static_cast<std::uint32_t>(std::find(pending_.begin(), pending_.end(), true) -
                                     pending_.begin());
}

// --- Scoreboard ------------------------------------------------------------

void Scoreboard::mark_outstanding_lost() {
  for (std::uint32_t p = una_; p < nxt_; ++p) mark_lost(p);
}

std::uint32_t Scoreboard::advance() {
  const std::uint32_t old_una = una_;
  while (una_ < size() && acked_[una_]) ++una_;
  return una_ - old_una;
}

void Scoreboard::checkpoint(StateIO& io) {
  const std::size_t psns = acked_.size();
  io.vbool(acked_);
  retx_.checkpoint(io);
  io.pod(una_);
  io.pod(nxt_);
  if (io.saving() || !io.ok()) return;
  if (acked_.size() != psns || una_ > nxt_ || nxt_ > psns) {
    io.fail("scoreboard: snd_una/snd_nxt outside the flow");
  }
}

// --- OooReceiver -----------------------------------------------------------

bool OooReceiver::admit(const Packet& pkt) {
  if (pkt.type != PktType::kData) return false;
  stats_.data_packets++;
  if (ecn_enabled_ && pkt.ecn_ce && cnp_.should_send(sim_.now())) {
    send_control(make_control(PktType::kCnp, HeaderSizes::kCnp));
  }
  return pkt.psn < total_packets();
}

void OooReceiver::place(const Packet& pkt) {
  if (received_[pkt.psn]) {
    stats_.duplicate_packets++;
    return;
  }
  received_[pkt.psn] = true;
  received_count_++;
  stats_.bytes_received += pkt.payload_bytes;
  if (pkt.psn != expected_) stats_.out_of_order_packets++;
  while (expected_ < total_packets() && received_[expected_]) ++expected_;
  if (complete()) mark_complete();
}

void OooReceiver::send_sack(const Packet& pkt) {
  Packet ack = make_control(PktType::kSack, HeaderSizes::kRoceAck + 4);
  ack.ack_psn = expected_;
  ack.sack_psn = pkt.psn;
  ack.ecn_ce = pkt.ecn_ce;  // echo for window-based CCs
  ack.echo_ts = pkt.sent_at;
  send_control(std::move(ack));
}

void OooReceiver::on_packet(Packet pkt) {
  if (!admit(pkt)) return;
  place(pkt);
  send_sack(pkt);
}

void OooReceiver::checkpoint_extra(StateIO& io) {
  const std::size_t psns = received_.size();
  io.vbool(received_);
  io.pod(received_count_);
  io.pod(expected_);
  if (io.saving() || !io.ok()) return;
  if (received_.size() != psns || expected_ > psns) io.fail("ooo receiver: ePSN outside the flow");
}

}  // namespace dcp
