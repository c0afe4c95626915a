#pragma once
// RNIC-GBN: the traditional RoCEv2 NIC behaviour (Mellanox CX5 class).
//
// Strict in-order reception; any out-of-order arrival is dropped with a
// NAK carrying the expected PSN; the sender rewinds and resends the whole
// window (Go-Back-N).  Combined with PFC-enabled switches this is the
// paper's "PFC" lossless baseline; on lossy switches it stands in for CX5
// in the testbed experiments (Figs 10-12).

#include "host/transport.h"

namespace dcp {

class GbnSender final : public SenderTransport {
 public:
  GbnSender(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg)
      : SenderTransport(sim, host, spec, cfg) {}

  void on_packet(Packet pkt) override;
  bool done() const override { return snd_una_ >= total_packets(); }

 protected:
  bool protocol_has_packet() override;
  Packet protocol_next_packet() override;
  void on_start() override { arm_rto(); }
  void checkpoint_extra(StateIO& io) override;

 private:
  void arm_rto();
  void on_rto();
  void rewind();
  std::uint64_t inflight_bytes() const;

  std::uint32_t snd_una_ = 0;  // oldest unacknowledged PSN
  std::uint32_t snd_nxt_ = 0;  // next new PSN to send
  // Rewind suppression: only one go-back per loss event (further NAKs for
  // the same ePSN are echoes of packets already in flight).
  std::uint32_t last_rewind_una_ = UINT32_MAX;
  std::uint32_t high_water_ = 0;  // highest snd_nxt ever reached
  Timer rto_{sim_, [this] { on_rto(); }};  // deadline-class: re-armed per ACK
};

class GbnReceiver final : public ReceiverTransport {
 public:
  GbnReceiver(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg)
      : ReceiverTransport(sim, host, spec, cfg) {}

  void on_packet(Packet pkt) override;
  bool complete() const override { return expected_ >= total_packets(); }

 protected:
  void checkpoint_extra(StateIO& io) override;

 private:
  std::uint32_t expected_ = 0;  // next in-order PSN
  bool nak_outstanding_ = false;
};

using GbnFactory = TransportPair<GbnSender, GbnReceiver>;

}  // namespace dcp
