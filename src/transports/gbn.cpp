#include "transports/gbn.h"

#include "sim/snapshot.h"

#include "host/host.h"

namespace dcp {

std::uint64_t GbnSender::inflight_bytes() const {
  return static_cast<std::uint64_t>(snd_nxt_ - snd_una_) * kMtuPayload;
}

bool GbnSender::protocol_has_packet() {
  if (done()) return false;
  return snd_nxt_ < total_packets() && inflight_bytes() < cc_->window_bytes();
}

Packet GbnSender::protocol_next_packet() {
  const std::uint32_t psn = snd_nxt_++;
  std::uint32_t hdr = HeaderSizes::kRoceData;
  if (psn == 0) hdr += HeaderSizes::kReth;  // standard RoCE: RETH in first packet only
  Packet p = make_data_packet(psn, hdr);
  p.tag = DcpTag::kNonDcp;
  p.is_retransmit = psn < high_water_;
  if (snd_nxt_ > high_water_) high_water_ = snd_nxt_;
  return p;
}

void GbnSender::arm_rto() { rto_.arm_deadline(cfg_.rto_high); }

void GbnSender::on_rto() {
  if (done()) return;
  stats_.timeouts++;
  cc_->on_timeout();
  rewind();
  arm_rto();
}

void GbnSender::rewind() {
  snd_nxt_ = snd_una_;
  last_rewind_una_ = snd_una_;
  kick_nic();
}

void GbnSender::on_packet(Packet pkt) {
  switch (pkt.type) {
    case PktType::kCnp:
      stats_.cnp_received++;
      cc_->on_cnp();
      return;
    case PktType::kAck: {
      if (pkt.echo_ts >= 0) cc_->on_rtt_sample(sim_.now() - pkt.echo_ts);
      if (pkt.ack_psn > snd_una_) {
        const std::uint64_t newly =
            static_cast<std::uint64_t>(pkt.ack_psn - snd_una_) * kMtuPayload;
        snd_una_ = pkt.ack_psn;
        if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
        cc_->on_ack(newly);
        if (done()) {
          rto_.cancel();
          finish();
          return;
        }
        arm_rto();
        kick_nic();
      }
      return;
    }
    case PktType::kNack: {
      if (pkt.ack_psn > snd_una_) {
        snd_una_ = pkt.ack_psn;  // a NAK acknowledges everything before ePSN
        arm_rto();
      }
      // One rewind per loss event: further NAKs carrying the same ePSN are
      // echoes of out-of-order packets already in flight.
      if (snd_una_ != last_rewind_una_ && snd_nxt_ > snd_una_) rewind();
      return;
    }
    default:
      return;
  }
}

void GbnReceiver::on_packet(Packet pkt) {
  if (pkt.type != PktType::kData) return;
  stats_.data_packets++;

  // DCQCN notification point: CE-marked data triggers a paced CNP.
  if (ecn_enabled_ && pkt.ecn_ce && cnp_.should_send(sim_.now())) {
    send_control(make_control(PktType::kCnp, HeaderSizes::kCnp));
  }

  if (pkt.psn == expected_) {
    expected_++;
    nak_outstanding_ = false;
    stats_.bytes_received += pkt.payload_bytes;
    if (complete()) mark_complete();
    Packet ack = make_control(PktType::kAck, HeaderSizes::kRoceAck);
    ack.ack_psn = expected_;
    ack.echo_ts = pkt.sent_at;
    send_control(std::move(ack));
    return;
  }

  if (pkt.psn < expected_) {
    stats_.duplicate_packets++;
    // Re-ACK so a sender whose ACK was lost can still advance.
    Packet ack = make_control(PktType::kAck, HeaderSizes::kRoceAck);
    ack.ack_psn = expected_;
    send_control(std::move(ack));
    return;
  }

  // Out-of-order: GBN drops the packet and NAKs once per gap event.
  stats_.out_of_order_packets++;
  if (!nak_outstanding_) {
    nak_outstanding_ = true;
    Packet nak = make_control(PktType::kNack, HeaderSizes::kRoceAck);
    nak.ack_psn = expected_;
    send_control(std::move(nak));
  }
}


void GbnSender::checkpoint_extra(StateIO& io) {
  io.pod(snd_una_);
  io.pod(snd_nxt_);
  io.pod(last_rewind_una_);
  io.pod(high_water_);
  io.timer(rto_);
}

void GbnReceiver::checkpoint_extra(StateIO& io) {
  io.pod(expected_);
  io.pod(nak_outstanding_);
}

}  // namespace dcp
