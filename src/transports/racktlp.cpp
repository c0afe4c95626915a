#include "transports/racktlp.h"

#include "sim/snapshot.h"

#include <algorithm>

#include "host/host.h"

namespace dcp {

bool RackTlpSender::protocol_has_packet() {
  return sb_.has_packet(static_cast<std::uint64_t>(sb_.outstanding()) * kMtuPayload <
                        cc_->window_bytes());
}

Packet RackTlpSender::protocol_next_packet() {
  const auto [psn, retx] = sb_.next_psn();
  Packet p = make_data_packet(psn, HeaderSizes::kRoceData + (psn == 0 ? HeaderSizes::kReth : 0));
  p.tag = DcpTag::kNonDcp;
  p.is_retransmit = retx;
  xmit_ts_[psn] = sim_.now();  // RACK: every transmission re-timestamps
  return p;
}

void RackTlpSender::on_rack() {
  detect_losses();
  kick_nic();
}

void RackTlpSender::arm_tlp() { tlp_.arm_deadline(2 * srtt_); }

void RackTlpSender::on_tlp() {
  if (done()) return;
  // Tail loss probe: resend the newest unacked packet to elicit a SACK.
  for (std::uint32_t p = sb_.nxt(); p > sb_.una(); --p) {
    if (sb_.mark_lost(p - 1)) break;
  }
  arm_tlp();
  kick_nic();
}

void RackTlpSender::arm_rto() { rto_.arm_deadline(cfg_.rto_high); }

void RackTlpSender::on_rto() {
  if (done()) return;
  stats_.timeouts++;
  cc_->on_timeout();
  sb_.mark_outstanding_lost();
  arm_rto();
  kick_nic();
}

void RackTlpSender::detect_losses() {
  if (rack_xmit_ts_ < 0) return;
  // reo_wnd = one estimated RTT (paper's description of the mechanism).
  const Time reo_wnd = srtt_;
  Time next_deadline = kTimeInfinity;
  for (std::uint32_t p = sb_.una(); p < sb_.nxt(); ++p) {
    if (sb_.acked(p) || sb_.retx().contains(p) || xmit_ts_[p] < 0) continue;
    if (xmit_ts_[p] + reo_wnd <= rack_xmit_ts_) {
      sb_.mark_lost(p);
    } else if (xmit_ts_[p] < rack_xmit_ts_) {
      // Could still be declared lost once reo_wnd elapses.
      next_deadline = std::min(next_deadline, sim_.now() + (xmit_ts_[p] + reo_wnd - rack_xmit_ts_));
    }
  }
  if (next_deadline != kTimeInfinity) rack_.arm_deadline_at(next_deadline);
}

void RackTlpSender::on_packet(Packet pkt) {
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

  sb_.cumulative_ack(pkt.ack_psn, [this](std::uint32_t p) {
    rack_xmit_ts_ = std::max(rack_xmit_ts_, xmit_ts_[p]);
  });
  if (pkt.type == PktType::kSack && pkt.sack_psn < total_packets() && sb_.sack(pkt.sack_psn)) {
    rack_xmit_ts_ = std::max(rack_xmit_ts_, xmit_ts_[pkt.sack_psn]);
    // RTT sample from the echoed packet.
    const Time sample = sim_.now() - xmit_ts_[pkt.sack_psn];
    srtt_ = (7 * srtt_ + sample) / 8;
    sb_.retx().remove(pkt.sack_psn);
  }
  if (const std::uint32_t newly = sb_.advance()) {
    cc_->on_ack(static_cast<std::uint64_t>(newly) * kMtuPayload);
  }
  if (done()) {
    rack_.cancel();
    tlp_.cancel();
    rto_.cancel();
    finish();
    return;
  }
  arm_tlp();
  arm_rto();
  detect_losses();
  kick_nic();
}


void RackTlpSender::checkpoint_extra(StateIO& io) {
  sb_.checkpoint(io);
  io.vec(xmit_ts_);
  io.pod(srtt_);
  io.pod(rack_xmit_ts_);
  io.timer(rack_);
  io.timer(tlp_);
  io.timer(rto_);
}

}  // namespace dcp
