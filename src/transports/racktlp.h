#pragma once
// RACK-TLP (RFC 8985) adapted to the RDMA message setting, the Falcon-style
// baseline of §6.3 / Fig. 17.
//
// The sender timestamps every (re)transmission.  A packet is declared lost
// when a packet sent *after* it has been delivered and at least one
// reordering window (estimated as one RTT, per the paper's description)
// has elapsed since the packet's transmission.  A Tail Loss Probe resends
// the newest unacked packet when ACKs stop arriving.  The per-packet
// timestamps are exactly the memory overhead the paper criticizes; the
// resource-proxy bench reports them.

#include <vector>

#include "host/transport.h"
#include "transports/selective_repeat.h"

namespace dcp {

class RackTlpSender final : public SenderTransport {
 public:
  RackTlpSender(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg)
      : SenderTransport(sim, host, spec, cfg),
        sb_(total_packets()),
        xmit_ts_(total_packets(), -1) {}

  void on_packet(Packet pkt) override;
  bool done() const override { return sb_.done(); }

 protected:
  bool protocol_has_packet() override;
  Packet protocol_next_packet() override;
  void on_start() override {
    arm_tlp();
    arm_rto();
  }
  void checkpoint_extra(StateIO& io) override;

 private:
  void detect_losses();
  void arm_tlp();
  void arm_rto();
  void on_rack();
  void on_tlp();
  void on_rto();

  Scoreboard sb_;
  std::vector<Time> xmit_ts_;  // last transmission time per PSN (the cost!)
  Time srtt_ = microseconds(20);
  Time rack_xmit_ts_ = -1;  // newest delivered packet's transmission time
  // All three are deadline-class (re-armed far more often than they fire).
  Timer rack_{sim_, [this] { on_rack(); }};
  Timer tlp_{sim_, [this] { on_tlp(); }};
  Timer rto_{sim_, [this] { on_rto(); }};
};

using RackTlpFactory = TransportPair<RackTlpSender, OooReceiver>;

}  // namespace dcp
