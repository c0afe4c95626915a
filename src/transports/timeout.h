#pragma once
// Timeout-only loss recovery (the NVIDIA Spectrum AR + SuperNIC stand-in,
// §6.3 / Fig. 17): the receiver places packets out-of-order and returns
// cumulative ACKs, but the sender has *no* fast retransmission — every
// loss waits for an RTO, which then selectively resends unacked packets.

#include "host/transport.h"
#include "transports/selective_repeat.h"

namespace dcp {

class TimeoutSender final : public SenderTransport {
 public:
  TimeoutSender(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg)
      : SenderTransport(sim, host, spec, cfg), sb_(total_packets()) {}

  void on_packet(Packet pkt) override;
  bool done() const override { return sb_.done(); }

 protected:
  bool protocol_has_packet() override;
  Packet protocol_next_packet() override;
  void on_start() override { arm_rto(); }
  void checkpoint_extra(StateIO& io) override;

 private:
  void arm_rto();
  void on_rto();

  Scoreboard sb_;
  Timer rto_{sim_, [this] { on_rto(); }};  // deadline-class: re-armed per ACK
};

using TimeoutFactory = TransportPair<TimeoutSender, OooReceiver>;

}  // namespace dcp
