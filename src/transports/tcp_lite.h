#pragma once
// TcpLite: a kernel-TCP software-stack proxy used only for the Fig. 8
// basic-validation bars (DCP / RNIC-GBN / TCP over two directly cabled
// hosts).  It is a NewReno-flavoured window transport whose throughput is
// capped by a modeled host processing rate (`kTcpStackRate`) and whose
// latency is inflated by per-packet kernel processing (`kTcpStackDelay`,
// split between the two ends) — capturing why RDMA offload wins, which is
// the figure's entire point.

#include "host/transport.h"
#include "transports/selective_repeat.h"

namespace dcp {

inline constexpr Bandwidth kTcpStackRate = Bandwidth::gbps(30);
inline constexpr Time kTcpStackDelay = microseconds(8);

// Neither end snapshots: each parks its packets in kernel-delay closures,
// which a re-armed restore cannot rebuild (SimWorld::snapshot_supported).
class TcpLiteSender final : public SenderTransport {
 public:
  TcpLiteSender(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg)
      : SenderTransport(sim, host, spec, stack_capped(cfg)), sb_(total_packets()) {}

  void on_packet(Packet pkt) override;
  bool done() const override { return sb_.done(); }

 protected:
  bool protocol_has_packet() override;
  Packet protocol_next_packet() override;
  void on_start() override { arm_rto(); }
  void checkpoint_extra(StateIO& io) override;

 private:
  /// Pacing at the host-processing rate instead of NIC line rate.
  static TransportConfig stack_capped(TransportConfig c) {
    c.cc.type = CcConfig::Type::kStaticWindow;
    c.cc.line_rate = kTcpStackRate;
    return c;
  }
  void arm_rto();
  void on_rto();
  void handle_ack(const Packet& pkt);

  Scoreboard sb_;
  double cwnd_pkts_ = 10.0;
  double ssthresh_pkts_ = 1e9;
  std::uint32_t dup_acks_ = 0;
  Timer rto_{sim_, [this] { on_rto(); }};  // deadline-class: re-armed per ACK
};

class TcpLiteReceiver final : public OooReceiver {
 public:
  using OooReceiver::OooReceiver;
  void on_packet(Packet pkt) override;

 protected:
  void checkpoint_extra(StateIO& io) override;

 private:
  void process(const Packet& pkt);
};

using TcpLiteFactory = TransportPair<TcpLiteSender, TcpLiteReceiver>;

}  // namespace dcp
