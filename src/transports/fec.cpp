#include "transports/fec.h"

#include "sim/snapshot.h"

#include <algorithm>

#include "host/host.h"

namespace dcp {
namespace {

// Group/index framing rides a 4-byte extension header on every FEC frame
// (2-byte group id + stride index + geometry), data and parity alike.
constexpr std::uint32_t kFecHdr = 4;

}  // namespace

// --- Sender ----------------------------------------------------------------

FecSender::FecSender(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg)
    : SenderTransport(sim, host, spec, cfg),
      layout_(cfg_.fec_k, cfg_.fec_m, total_packets()),
      group_acked_(layout_.groups, false),
      group_payload_sent_(layout_.groups, 0),
      retx_(layout_.wire_total) {}

bool FecSender::protocol_has_packet() {
  if (done()) return false;
  if (!retx_.empty()) return true;
  advance_past_acked();
  return snd_nxt_wire_ < layout_.wire_total && window_used_ < cfg_.fec_stream_window_bytes;
}

void FecSender::advance_past_acked() {
  // A group can be ACKed (decoded from a partial stride) while its tail is
  // still unsent; skipping the dead PSNs keeps new-data PSNs strictly
  // increasing, which is what the oracle's psn-monotonic check wants.
  while (snd_nxt_wire_ < layout_.wire_total && group_acked_[layout_.group_of(snd_nxt_wire_)]) {
    snd_nxt_wire_ = layout_.wire_end(layout_.group_of(snd_nxt_wire_));
  }
}

Packet FecSender::make_fec_packet(std::uint32_t wire_psn, bool retransmit) {
  // Hand-rolled rather than make_data_packet(): wire PSNs run past the
  // data-packet count, where payload_of() would wrap.
  const std::uint32_t g = layout_.group_of(wire_psn);
  const std::uint32_t idx = wire_psn - layout_.wire_begin(g);
  const bool is_parity = idx >= layout_.k_of(g);
  Packet p;
  p.src = spec_.src;
  p.dst = spec_.dst;
  p.flow = spec_.id;
  p.type = PktType::kData;
  p.op = spec_.op;
  p.psn = wire_psn;
  // Parity frames carry the group's widest chunk (its first): shorter data
  // chunks are zero-padded under the code.
  p.payload_bytes = is_parity ? payload_of(g * layout_.k) : payload_of(layout_.data_index(wire_psn));
  p.wire_bytes = p.payload_bytes + HeaderSizes::kRoceData + kFecHdr +
                 (wire_psn == 0 ? HeaderSizes::kReth : 0);
  p.ecn_capable = true;
  p.last_of_flow = (wire_psn + 1 == layout_.wire_total);
  p.queue_class = QueueClass::kData;
  p.tag = DcpTag::kNonDcp;
  p.is_retransmit = retransmit;
  if (is_parity && !retransmit) stats_.parity_packets_sent++;
  return p;
}

Packet FecSender::protocol_next_packet() {
  if (!retx_.empty()) return make_fec_packet(retx_.pop(), /*retransmit=*/true);
  advance_past_acked();
  const std::uint32_t psn = snd_nxt_wire_++;
  Packet p = make_fec_packet(psn, /*retransmit=*/false);
  const std::uint32_t g = layout_.group_of(psn);
  group_payload_sent_[g] += p.payload_bytes;
  window_used_ += p.payload_bytes;
  return p;
}

void FecSender::ack_group(std::uint32_t g) {
  if (g >= layout_.groups || group_acked_[g]) return;
  group_acked_[g] = true;
  ++acked_groups_;
  window_used_ -= std::min(window_used_, group_payload_sent_[g]);
  // Any retransmissions still queued for the group are moot.
  const std::uint32_t end = std::min<std::uint32_t>(layout_.wire_end(g), snd_nxt_wire_);
  for (std::uint32_t p = layout_.wire_begin(g); p < end; ++p) retx_.remove(p);
  cc_->on_ack(group_payload_sent_[g]);
}

void FecSender::queue_retx(std::uint32_t wire_psn) {
  if (wire_psn >= snd_nxt_wire_) return;  // never sent: still streaming
  if (group_acked_[layout_.group_of(wire_psn)]) return;
  retx_.push(wire_psn);
}

void FecSender::on_rto() {
  if (done()) return;
  stats_.timeouts++;
  cc_->on_timeout();
  // Backstop only: resend every sent-but-unacked DATA chunk.  The receiver
  // re-ACKs completed groups on duplicates, so even a lost group ACK heals.
  for (std::uint32_t psn = 0; psn < snd_nxt_wire_; ++psn) {
    if (layout_.is_data(psn)) queue_retx(psn);
  }
  arm_rto();
  kick_nic();
}

void FecSender::on_packet(Packet pkt) {
  switch (pkt.type) {
    case PktType::kCnp:
      stats_.cnp_received++;
      cc_->on_cnp();
      return;
    case PktType::kAck:
    case PktType::kNack:
      break;
    default:
      return;
  }
  if (pkt.echo_ts >= 0) cc_->on_rtt_sample(sim_.now() - pkt.echo_ts);
  const std::uint32_t old_acked = acked_groups_;
  // ack_psn carries the receiver's contiguous complete-group cursor on both
  // ACKs and NACKs; an ACK additionally names the completing group.
  for (std::uint32_t g = 0; g < pkt.ack_psn && g < layout_.groups; ++g) ack_group(g);
  if (pkt.type == PktType::kAck) {
    ack_group(pkt.sack_psn);
  } else {
    queue_retx(pkt.sack_psn);  // NACK: sack_psn is the requested wire PSN
  }
  if (acked_groups_ > old_acked) arm_rto();
  if (done()) {
    rto_.cancel();
    finish();
    return;
  }
  kick_nic();
}

// --- Receiver --------------------------------------------------------------

FecReceiver::FecReceiver(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg)
    : ReceiverTransport(sim, host, spec, cfg),
      layout_(cfg_.fec_k, cfg_.fec_m, total_packets()),
      received_(layout_.wire_total, false),
      group_(layout_.groups) {}

std::uint32_t FecReceiver::payload_of_data(std::uint32_t data_idx) const {
  if (spec_.bytes == 0) return 0;
  const std::uint64_t mtu = kMtuPayload;
  const std::uint64_t offset = static_cast<std::uint64_t>(data_idx) * mtu;
  const std::uint64_t left = spec_.bytes - offset;
  return static_cast<std::uint32_t>(left < mtu ? left : mtu);
}

void FecReceiver::complete_group(std::uint32_t g) {
  GroupState& gs = group_[g];
  gs.complete = true;
  ++complete_groups_;
  // Parity decode stands in for the chunks that never arrived: credit their
  // bytes now and mark their wire slots so stragglers count as duplicates.
  const std::uint32_t begin = layout_.wire_begin(g);
  const std::uint32_t k_g = layout_.k_of(g);
  for (std::uint32_t i = 0; i < k_g; ++i) {
    if (!received_[begin + i]) {
      received_[begin + i] = true;
      gs.got_data++;
      stats_.decode_recovered_packets++;
      stats_.bytes_received += payload_of_data(layout_.data_index(begin + i));
    }
  }
  while (groups_done_cum_ < layout_.groups && group_[groups_done_cum_].complete) {
    ++groups_done_cum_;
  }
  if (complete()) {
    nack_timer_.cancel();
    mark_complete();
  }
}

void FecReceiver::send_group_ack(std::uint32_t g, const Packet& cause) {
  Packet ack = make_control(PktType::kAck, HeaderSizes::kRoceAck + kFecHdr);
  ack.ack_psn = groups_done_cum_;
  ack.sack_psn = g;
  ack.ecn_ce = cause.ecn_ce;  // echo for window-based CCs
  ack.echo_ts = cause.sent_at;
  send_control(std::move(ack));
}

void FecReceiver::on_nack_timer() {
  if (complete()) return;
  // Quiet period with incomplete groups behind the stream front: request
  // every missing DATA chunk of each such group (parity that was lost is
  // never re-made — the data it protected is what we actually want).
  bool sent = false;
  for (std::uint32_t g = 0; g <= max_seen_group_ && g < layout_.groups; ++g) {
    const GroupState& gs = group_[g];
    if (gs.complete) continue;
    const std::uint32_t begin = layout_.wire_begin(g);
    const std::uint32_t k_g = layout_.k_of(g);
    for (std::uint32_t i = 0; i < k_g; ++i) {
      if (received_[begin + i]) continue;
      Packet nack = make_control(PktType::kNack, HeaderSizes::kRoceAck + kFecHdr);
      nack.ack_psn = groups_done_cum_;
      nack.sack_psn = begin + i;
      send_control(std::move(nack));
      sent = true;
    }
  }
  // Follow-up at RTO pace so a lost NACK round retries without storming;
  // any new arrival re-arms the short quiet-period detector below.
  if (sent) arm_nack(cfg_.rto_high);
}

void FecReceiver::on_packet(Packet pkt) {
  if (pkt.type != PktType::kData) return;
  stats_.data_packets++;
  if (ecn_enabled_ && pkt.ecn_ce && cnp_.should_send(sim_.now())) {
    send_control(make_control(PktType::kCnp, HeaderSizes::kCnp));
  }
  if (pkt.psn >= layout_.wire_total) return;
  const std::uint32_t g = layout_.group_of(pkt.psn);
  GroupState& gs = group_[g];
  if (g > max_seen_group_) max_seen_group_ = g;

  if (received_[pkt.psn]) {
    stats_.duplicate_packets++;
    // Duplicate into a completed group re-ACKs it: this is how a lost
    // group ACK (or a spurious RTO burst) converges at the sender.
    if (gs.complete) send_group_ack(g, pkt);
    if (!complete()) arm_nack(cfg_.fec_nack_delay);
    return;
  }

  received_[pkt.psn] = true;
  if (pkt.psn != expected_wire_) stats_.out_of_order_packets++;
  while (expected_wire_ < layout_.wire_total && received_[expected_wire_]) ++expected_wire_;

  const bool is_data = layout_.is_data(pkt.psn);
  if (gs.complete) {
    // The group already decoded without this chunk (late parity, or data
    // overtaken by its own repair): no new payload bytes.
    stats_.duplicate_packets++;
    send_group_ack(g, pkt);
    if (!complete()) arm_nack(cfg_.fec_nack_delay);
    return;
  }
  if (is_data) {
    gs.got_data++;
    stats_.bytes_received += pkt.payload_bytes;
    if (pkt.is_retransmit) stats_.nack_recovered_packets++;
  } else {
    gs.got_parity++;
  }
  if (layout_.decodable(g, gs.got_data, gs.got_parity)) {
    complete_group(g);
    send_group_ack(g, pkt);
  }
  if (!complete()) arm_nack(cfg_.fec_nack_delay);
}


void FecSender::checkpoint_extra(StateIO& io) {
  io.pod(snd_nxt_wire_);
  io.vbool(group_acked_);
  io.pod(acked_groups_);
  io.vec(group_payload_sent_);
  io.pod(window_used_);
  retx_.checkpoint(io);
  io.timer(rto_);
}

void FecReceiver::checkpoint_extra(StateIO& io) {
  io.vbool(received_);
  io.vec(group_);
  io.pod(complete_groups_);
  io.pod(groups_done_cum_);
  io.pod(max_seen_group_);
  io.pod(expected_wire_);
  io.timer(nack_timer_);
}

}  // namespace dcp
