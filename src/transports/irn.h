#pragma once
// IRN (Mittal et al., SIGCOMM 2018) — the paper's representative RNIC-SR
// (simplified selective repeat in the NIC).
//
// Receiver: accepts out-of-order packets (tracked in a bitmap) and answers
// every OOO arrival with a SACK carrying the cumulative ePSN plus the PSN
// just received.  Sender: keeps a bitmap of (S)ACKed packets; a SACK or an
// RTO enters *loss recovery*, where a packet counts as lost iff a higher
// PSN has been SACKed.  The sender exits recovery only once the cumulative
// ACK passes the highest PSN outstanding at entry — so a retransmission
// that is lost again can only be recovered by RTO (paper §2.2 Issue #2).
// Flow control is a static BDP window; RTO is RTO_low when few packets are
// outstanding, RTO_high otherwise.

#include <vector>

#include "host/transport.h"
#include "transports/selective_repeat.h"

namespace dcp {

class IrnSender final : public SenderTransport {
 public:
  IrnSender(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg)
      : SenderTransport(sim, host, spec, cfg),
        sb_(total_packets()),
        retx_done_(total_packets(), false) {}
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
  void enter_recovery();
  void scan_for_losses();

  Scoreboard sb_;
  std::vector<bool> retx_done_;    // retransmitted once in this episode
  std::uint32_t highest_sacked_ = 0;  // highest PSN ever (s)acked + 1
  // Loss-scan watermark: below it every packet is acked or already
  // fast-retransmitted this episode, so each SACK only scans the newly
  // SACKed range (amortized O(total) per episode instead of
  // O(window) per SACK — essential for cross-DC BDP windows).
  std::uint32_t loss_scan_ = 0;
  bool in_recovery_ = false;
  std::uint32_t recovery_high_ = 0;   // snd_nxt at recovery entry
  Timer rto_{sim_, [this] { on_rto(); }};  // deadline-class: re-armed per ACK
};

class IrnReceiver final : public OooReceiver {
 public:
  using OooReceiver::OooReceiver;
  void on_packet(Packet pkt) override;
};

using IrnFactory = TransportPair<IrnSender, IrnReceiver>;

}  // namespace dcp
