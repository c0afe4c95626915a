#include "transports/irn.h"

#include "sim/snapshot.h"

#include "host/host.h"

namespace dcp {

// RTO_low applies while at most this many packets are outstanding.
constexpr std::uint32_t kRtoLowThresholdPkts = 3;

bool IrnSender::protocol_has_packet() {
  // Unacked bytes between the cumulative ACK and snd_nxt; SACKed holes are
  // a second-order correction we ignore (IRN uses the same approximation).
  return sb_.has_packet(static_cast<std::uint64_t>(sb_.outstanding()) * kMtuPayload <
                        cc_->window_bytes());
}

Packet IrnSender::protocol_next_packet() {
  // Retransmissions take precedence over new data.
  const auto [psn, retx] = sb_.next_psn();
  Packet p = make_data_packet(psn, HeaderSizes::kRoceData + (psn == 0 ? HeaderSizes::kReth : 0));
  p.tag = DcpTag::kNonDcp;
  p.is_retransmit = retx;
  return p;
}

void IrnSender::arm_rto() {
  const Time rto =
      sb_.outstanding() <= kRtoLowThresholdPkts ? cfg_.rto_low : cfg_.rto_high;
  rto_.arm_deadline(rto);
}

void IrnSender::on_rto() {
  if (done()) return;
  stats_.timeouts++;
  cc_->on_timeout();
  // Selective timeout recovery: the queue becomes exactly the unacked
  // outstanding packets (a PSN cumulatively acked while queued is
  // forgotten, not resent), and each may be fast-retransmitted again.
  sb_.retx().clear();
  sb_.mark_outstanding_lost();
  std::fill(retx_done_.begin() + sb_.una(), retx_done_.begin() + sb_.nxt(), false);
  loss_scan_ = sb_.una();
  enter_recovery();
  arm_rto();
  kick_nic();
}

void IrnSender::enter_recovery() {
  if (!in_recovery_) {
    in_recovery_ = true;
    recovery_high_ = sb_.nxt();
  }
}

void IrnSender::scan_for_losses() {
  // A packet is lost iff it is unacked and a higher PSN has been SACKed;
  // each packet is fast-retransmitted at most once per recovery episode.
  // The watermark skips ranges already classified this episode.
  std::uint32_t p = std::max(sb_.una(), loss_scan_);
  const std::uint32_t end = std::min(highest_sacked_, sb_.nxt());
  for (; p < end; ++p) {
    if (!retx_done_[p] && sb_.mark_lost(p)) retx_done_[p] = true;
  }
  if (end > loss_scan_) loss_scan_ = end;
}

void IrnSender::on_packet(Packet pkt) {
  switch (pkt.type) {
    case PktType::kCnp:
      stats_.cnp_received++;
      cc_->on_cnp();
      return;
    case PktType::kAck:
    case PktType::kSack:
      break;
    default:
      return;
  }

  if (pkt.echo_ts >= 0) cc_->on_rtt_sample(sim_.now() - pkt.echo_ts);
  sb_.cumulative_ack(pkt.ack_psn);
  if (pkt.type == PktType::kSack && pkt.sack_psn < total_packets()) {
    sb_.sack(pkt.sack_psn);
    if (pkt.sack_psn + 1 > highest_sacked_) highest_sacked_ = pkt.sack_psn + 1;
    sb_.retx().remove(pkt.sack_psn);
  }
  const std::uint32_t newly = sb_.advance();
  if (sb_.una() > highest_sacked_) highest_sacked_ = sb_.una();

  if (newly > 0) {
    cc_->on_ack(static_cast<std::uint64_t>(newly) * kMtuPayload);
    arm_rto();
  }

  if (done()) {
    rto_.cancel();
    finish();
    return;
  }

  // Exit condition: cumulative ACK passed everything outstanding at entry.
  if (in_recovery_ && sb_.una() >= recovery_high_) {
    in_recovery_ = false;
    std::fill(retx_done_.begin(), retx_done_.end(), false);
    loss_scan_ = sb_.una();  // fresh episode: everything may be rescanned
  }

  // Any SACK (an out-of-order indication) triggers/extends loss recovery.
  if (pkt.type == PktType::kSack) {
    enter_recovery();
    scan_for_losses();
  }
  kick_nic();
}

void IrnReceiver::on_packet(Packet pkt) {
  if (!admit(pkt)) return;
  place(pkt);

  // In-order arrivals produce a cumulative ACK; out-of-order arrivals (or
  // duplicates, which imply sender-side confusion) produce a SACK.
  if (pkt.psn + 1 == expected() || pkt.psn < expected()) {
    Packet ack = make_control(PktType::kAck, HeaderSizes::kRoceAck);
    ack.ack_psn = expected();
    ack.echo_ts = pkt.sent_at;
    send_control(std::move(ack));
  } else {
    Packet sack = make_control(PktType::kSack, HeaderSizes::kRoceAck + 4);
    sack.ack_psn = expected();
    sack.sack_psn = pkt.psn;
    sack.echo_ts = pkt.sent_at;
    send_control(std::move(sack));
  }
}


void IrnSender::checkpoint_extra(StateIO& io) {
  sb_.checkpoint(io);
  io.vbool(retx_done_);
  io.pod(highest_sacked_);
  io.pod(loss_scan_);
  io.pod(in_recovery_);
  io.pod(recovery_high_);
  io.timer(rto_);
}

}  // namespace dcp
