#include "transports/timeout.h"

#include "sim/snapshot.h"

#include "host/host.h"

namespace dcp {

bool TimeoutSender::protocol_has_packet() {
  return sb_.has_packet(static_cast<std::uint64_t>(sb_.outstanding()) * kMtuPayload <
                        cc_->window_bytes());
}

Packet TimeoutSender::protocol_next_packet() {
  const auto [psn, retx] = sb_.next_psn();
  Packet p = make_data_packet(psn, HeaderSizes::kRoceData + (psn == 0 ? HeaderSizes::kReth : 0));
  p.tag = DcpTag::kNonDcp;
  p.is_retransmit = retx;
  return p;
}

void TimeoutSender::arm_rto() { rto_.arm_deadline(cfg_.rto_high); }

void TimeoutSender::on_rto() {
  if (done()) return;
  stats_.timeouts++;
  cc_->on_timeout();
  sb_.mark_outstanding_lost();
  arm_rto();
  kick_nic();
}

void TimeoutSender::on_packet(Packet pkt) {
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
  // A SACK never dequeues: an RTO resends all it queued.
  if (pkt.type == PktType::kSack && pkt.sack_psn < total_packets()) sb_.sack(pkt.sack_psn);
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

void TimeoutSender::checkpoint_extra(StateIO& io) {
  sb_.checkpoint(io);
  io.timer(rto_);
}

}  // namespace dcp
