#include "transports/mprdma.h"

#include <algorithm>

#include "sim/snapshot.h"

#include "host/host.h"

namespace dcp {

constexpr std::uint32_t kVirtualPaths = 8;

bool MpRdmaSender::protocol_has_packet() {
  return sb_.has_packet(static_cast<double>(sb_.outstanding()) < cwnd_pkts_);
}

Packet MpRdmaSender::protocol_next_packet() {
  const auto [psn, retx] = sb_.next_psn();
  Packet p = make_data_packet(psn, HeaderSizes::kRoceData + (psn == 0 ? HeaderSizes::kReth : 0));
  p.tag = DcpTag::kNonDcp;
  p.is_retransmit = retx;
  p.path_id = vp_rr_++ % kVirtualPaths;  // per-packet virtual path
  return p;
}

void MpRdmaSender::arm_rto() { rto_.arm_deadline(cfg_.rto_high); }

void MpRdmaSender::on_rto() {
  if (done()) return;
  stats_.timeouts++;
  cc_->on_timeout();
  sb_.mark_outstanding_lost();
  cwnd_pkts_ = std::max(1.0, cwnd_pkts_ / 2.0);
  arm_rto();
  kick_nic();
}

void MpRdmaSender::on_packet(Packet pkt) {
  switch (pkt.type) {
    case PktType::kCnp:
      stats_.cnp_received++;
      cc_->on_cnp();
      return;
    case PktType::kNack: {
      // Receiver dropped an out-of-window packet; retransmit just it.
      if (pkt.sack_psn < total_packets()) sb_.mark_lost(pkt.sack_psn);
      cwnd_pkts_ = std::max(1.0, cwnd_pkts_ - 1.0);
      kick_nic();
      return;
    }
    case PktType::kAck:
    case PktType::kSack:
      break;
    default:
      return;
  }

  // Per-ACK window adjustment (NSDI'18): ECN mark -> -1/2 packet; clean ACK
  // -> +1/cwnd packets.
  if (pkt.ecn_ce) {
    cwnd_pkts_ = std::max(1.0, cwnd_pkts_ - 0.5);
  } else {
    cwnd_pkts_ = std::min(max_cwnd_pkts_, cwnd_pkts_ + 1.0 / cwnd_pkts_);
  }

  sb_.cumulative_ack(pkt.ack_psn);
  if (pkt.type == PktType::kSack && pkt.sack_psn < total_packets()) {
    sb_.sack(pkt.sack_psn);
    sb_.retx().remove(pkt.sack_psn);
  }
  if (const std::uint32_t newly = sb_.advance()) {
    cc_->on_ack(static_cast<std::uint64_t>(newly) * kMtuPayload);
    arm_rto();
  }
  if (done()) {
    rto_.cancel();
    finish();
    return;
  }
  kick_nic();
}

std::uint32_t MpRdmaReceiver::ooo_window_pkts() const {
  // The reordering tolerance scales with the BDP window (the NSDI'18
  // design sizes it from on-NIC metadata limits); it remains a fraction of
  // the window, which is what the paper's "cannot control the OOO degree"
  // observation exploits.
  return std::max<std::uint32_t>(
      64, static_cast<std::uint32_t>(cfg_.cc.window_bytes / (4 * kMtuPayload)));
}

void MpRdmaReceiver::on_packet(Packet pkt) {
  if (!admit(pkt)) return;
  // Bounded reordering tolerance: beyond the window the packet cannot be
  // placed (MP-RDMA's on-NIC metadata is limited) and is dropped + NACKed.
  if (pkt.psn >= expected() + ooo_window_pkts()) {
    stats_.out_of_order_packets++;
    Packet nack = make_control(PktType::kNack, HeaderSizes::kRoceAck + 4);
    nack.ack_psn = expected();
    nack.sack_psn = pkt.psn;
    send_control(std::move(nack));
    return;
  }
  place(pkt);
  send_sack(pkt);  // its CE echo drives the sender's per-ACK window rule
}

void MpRdmaSender::checkpoint_extra(StateIO& io) {
  sb_.checkpoint(io);
  io.pod(cwnd_pkts_);
  io.pod(max_cwnd_pkts_);
  io.pod(vp_rr_);
  io.timer(rto_);
}

}  // namespace dcp
