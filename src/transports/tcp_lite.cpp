#include "transports/tcp_lite.h"

#include "sim/snapshot.h"

#include <algorithm>

#include "host/host.h"

namespace dcp {

bool TcpLiteSender::protocol_has_packet() {
  return sb_.has_packet(static_cast<double>(sb_.outstanding()) < cwnd_pkts_);
}

Packet TcpLiteSender::protocol_next_packet() {
  const auto [psn, retx] = sb_.next_psn();
  // TCP/IP header ~ Ethernet + IP + TCP(20).
  Packet p = make_data_packet(psn, HeaderSizes::kEth + HeaderSizes::kIp + 20);
  p.tag = DcpTag::kNonDcp;
  p.is_retransmit = retx;
  return p;
}

void TcpLiteSender::arm_rto() {
  rto_.arm_deadline(std::max<Time>(cfg_.rto_high, milliseconds(1)));
}

void TcpLiteSender::on_rto() {
  if (done()) return;
  stats_.timeouts++;
  ssthresh_pkts_ = std::max(2.0, cwnd_pkts_ / 2.0);
  cwnd_pkts_ = 1.0;
  sb_.mark_outstanding_lost();
  arm_rto();
  kick_nic();
}

void TcpLiteSender::handle_ack(const Packet& pkt) {
  sb_.cumulative_ack(pkt.ack_psn);
  if (const std::uint32_t newly = sb_.advance()) {
    dup_acks_ = 0;
    // Slow start / congestion avoidance.
    const double delta = static_cast<double>(newly);
    if (cwnd_pkts_ < ssthresh_pkts_) {
      cwnd_pkts_ += delta;
    } else {
      cwnd_pkts_ += delta / cwnd_pkts_;
    }
    arm_rto();
  } else if (pkt.ack_psn == sb_.una() && sb_.outstanding() > 0) {
    if (++dup_acks_ == 3) {
      ssthresh_pkts_ = std::max(2.0, cwnd_pkts_ / 2.0);
      cwnd_pkts_ = ssthresh_pkts_;
      sb_.mark_lost(sb_.una());
    }
  }
  if (done()) {
    rto_.cancel();
    finish();
    return;
  }
  kick_nic();
}

void TcpLiteSender::on_packet(Packet pkt) {
  if (pkt.type != PktType::kAck) return;
  // Kernel processing latency before the ACK reaches the TCP state machine.
  // Pool the packet so the deferred closure stays within the event's
  // inline capture budget (a by-value Packet would heap-allocate).
  sim_.schedule(kTcpStackDelay / 2,
                [this, p = PacketPtr::make(std::move(pkt))] { handle_ack(*p); });
}

void TcpLiteReceiver::on_packet(Packet pkt) {
  if (pkt.type != PktType::kData) return;
  // Kernel receive path latency (interrupt + softirq + socket copy).
  sim_.schedule(kTcpStackDelay / 2,
                [this, p = PacketPtr::make(std::move(pkt))] { process(*p); });
}

void TcpLiteReceiver::process(const Packet& pkt) {
  stats_.data_packets++;
  if (pkt.psn >= total_packets()) return;
  place(pkt);
  Packet ack = make_control(PktType::kAck, HeaderSizes::kEth + HeaderSizes::kIp + 20);
  ack.ack_psn = expected();
  send_control(std::move(ack));
}

void TcpLiteSender::checkpoint_extra(StateIO& io) {
  io.fail("TcpLite does not snapshot: kernel-delay closures hold its ACKs");
}

void TcpLiteReceiver::checkpoint_extra(StateIO& io) {
  io.fail("TcpLite does not snapshot: kernel-delay closures hold its data packets");
}

}  // namespace dcp
