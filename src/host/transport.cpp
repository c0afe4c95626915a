#include "host/transport.h"

#include "check/observer.h"
#include "host/host.h"
#include "sim/snapshot.h"

namespace dcp {

SenderTransport::SenderTransport(Simulator& sim, Host& host, FlowSpec spec,
                                 TransportConfig cfg)
    : sim_(sim),
      host_(host),
      spec_(spec),
      cfg_(cfg),
      cc_(make_cc(sim, cfg.cc)) {
  const std::uint64_t mtu = kMtuPayload;
  total_pkts_ = static_cast<std::uint32_t>((spec_.bytes + mtu - 1) / mtu);
  if (total_pkts_ == 0) total_pkts_ = 1;  // zero-byte message still sends one packet
}

void SenderTransport::start() {
  started_at_ = sim_.now();
  on_start();
  host_.nic().register_sender(this);
}

bool SenderTransport::has_packet(Time now) {
  if (finished_) return false;
  if (now < next_allowed_) return false;
  return protocol_has_packet();
}

Time SenderTransport::next_eligible(Time now) {
  if (finished_ || !protocol_has_packet()) return kTimeInfinity;
  return next_allowed_ > now ? next_allowed_ : now;
}

Packet SenderTransport::next_packet() {
  Packet p = protocol_next_packet();
  p.sent_at = sim_.now();
  p.sport = spec_.sport;
  // CC pacing: space this QP's next injection at its current rate.  At line
  // rate the gap equals the serialization time, so pacing is a no-op and
  // the NIC round-robin governs.
  const Bandwidth r = cc_->rate();
  next_allowed_ = sim_.now() + r.serialize(p.wire_bytes);
  stats_.bytes_sent += p.payload_bytes;
  if (p.type == PktType::kData) {
    stats_.data_packets_sent++;
    if (p.is_retransmit) stats_.retransmitted_packets++;
  }
  return p;
}

void SenderTransport::kick_nic() { host_.nic().kick(); }

void SenderTransport::finish() {
  // Duplicate calls are idiomatic here — every ACK that confirms completion
  // may call finish() (a spurious retransmit earns a duplicate final ACK),
  // so the observer only sees the application-visible transition.  The
  // receiver-side hook is the strict one (see mark_complete).
  if (finished_) return;
  finished_ = true;
  if (CheckObserver* ob = sim_.check_observer()) ob->on_tx_complete(spec_.id);
  host_.nic().deregister_sender(this);
  if (host_.on_sender_done) host_.on_sender_done(spec_.id);
}

std::uint32_t SenderTransport::payload_of(std::uint32_t psn) const {
  if (spec_.bytes == 0) return 0;
  const std::uint64_t mtu = kMtuPayload;
  const std::uint64_t offset = static_cast<std::uint64_t>(psn) * mtu;
  const std::uint64_t left = spec_.bytes - offset;
  return static_cast<std::uint32_t>(left < mtu ? left : mtu);
}

Packet SenderTransport::make_data_packet(std::uint32_t psn, std::uint32_t header_bytes) {
  Packet p;
  p.src = spec_.src;
  p.dst = spec_.dst;
  p.flow = spec_.id;
  p.type = PktType::kData;
  p.op = spec_.op;
  p.psn = psn;
  p.payload_bytes = payload_of(psn);
  p.wire_bytes = p.payload_bytes + header_bytes;
  p.ecn_capable = true;
  p.last_of_flow = (psn + 1 == total_pkts_);
  p.queue_class = QueueClass::kData;
  return p;
}

ReceiverTransport::ReceiverTransport(Simulator& sim, Host& host, FlowSpec spec,
                                     TransportConfig cfg)
    : sim_(sim),
      host_(host),
      spec_(spec),
      cfg_(cfg),
      ecn_enabled_(cfg.cc.type == CcConfig::Type::kDcqcn) {
  const std::uint64_t mtu = kMtuPayload;
  total_pkts_ = static_cast<std::uint32_t>((spec_.bytes + mtu - 1) / mtu);
  if (total_pkts_ == 0) total_pkts_ = 1;
}

void ReceiverTransport::send_control(Packet pkt) {
  stats_.acks_sent++;
  host_.nic().send_control(std::move(pkt));
}

Packet ReceiverTransport::make_control(PktType type, std::uint32_t wire_bytes) {
  Packet p;
  p.src = spec_.dst;  // we are the destination end
  p.dst = spec_.src;
  p.flow = spec_.id;
  p.type = type;
  p.wire_bytes = wire_bytes;
  p.queue_class = QueueClass::kData;
  return p;
}

void ReceiverTransport::mark_complete() {
  // Every call is reported, ahead of the guard (see SenderTransport::finish).
  if (CheckObserver* ob = sim_.check_observer()) ob->on_rx_complete(spec_.id);
  if (completion_fired_) return;
  completion_fired_ = true;
  if (host_.on_receiver_done) host_.on_receiver_done(spec_.id);
}

void SenderTransport::checkpoint(StateIO& io) {
  io.label(0x5E4D00u);
  io.pod(stats_);
  io.pod(started_at_);
  io.pod(finished_);
  io.pod(next_allowed_);
  cc_->checkpoint(io);
  checkpoint_extra(io);
}

void SenderTransport::checkpoint_extra(StateIO& io) {
  io.fail("snapshot unsupported for this sender transport");
}

void ReceiverTransport::checkpoint(StateIO& io) {
  io.label(0x4ECF00u);
  io.pod(stats_);
  io.pod(completion_fired_);
  cnp_.checkpoint(io);
  checkpoint_extra(io);
}

void ReceiverTransport::checkpoint_extra(StateIO& io) {
  io.fail("snapshot unsupported for this receiver transport");
}

}  // namespace dcp
