#pragma once
// MP-RDMA (Lu et al., NSDI 2018) — packet-level multipath RDMA with an
// ECN-driven adaptive congestion window.  Requires a lossless (PFC) fabric
// (paper Table 2: fails R1/R3): a packet lost in the fabric is resent only
// after an RTO.
//
// Model: the sender sprays packets over eight virtual paths
// (switches honour path_id in SourcePath mode), grows its window by 1/cwnd
// per unmarked ACK and shrinks by 1/2 packet per ECN-marked ACK (the
// NSDI'18 per-ACK rule).  The receiver accepts out-of-order packets inside
// a bounded reordering window (a quarter of the BDP window, at least 64
// packets); beyond it, packets are dropped and NACKed — the "cannot
// control OOO degree" behaviour §6.2 observes.

#include "host/transport.h"
#include "transports/selective_repeat.h"

namespace dcp {

class MpRdmaSender final : public SenderTransport {
 public:
  MpRdmaSender(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg)
      : SenderTransport(sim, host, spec, cfg),
        sb_(total_packets()),
        cwnd_pkts_(static_cast<double>(cfg.cc.window_bytes) / kMtuPayload) {
    if (cwnd_pkts_ < 1.0) cwnd_pkts_ = 1.0;
    max_cwnd_pkts_ = 2.0 * cwnd_pkts_;
  }

  void on_packet(Packet pkt) override;
  bool done() const override { return sb_.done(); }

  double cwnd_pkts() const { return cwnd_pkts_; }

 protected:
  bool protocol_has_packet() override;
  Packet protocol_next_packet() override;
  void on_start() override { arm_rto(); }
  void checkpoint_extra(StateIO& io) override;

 private:
  void arm_rto();
  void on_rto();

  Scoreboard sb_;
  double cwnd_pkts_;
  double max_cwnd_pkts_;
  std::uint32_t vp_rr_ = 0;  // virtual-path round robin
  Timer rto_{sim_, [this] { on_rto(); }};  // deadline-class: re-armed per ACK
};

class MpRdmaReceiver final : public OooReceiver {
 public:
  using OooReceiver::OooReceiver;
  void on_packet(Packet pkt) override;

 private:
  std::uint32_t ooo_window_pkts() const;
};

using MpRdmaFactory = TransportPair<MpRdmaSender, MpRdmaReceiver>;

}  // namespace dcp
