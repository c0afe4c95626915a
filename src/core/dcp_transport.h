#pragma once
// DCP-RNIC: the paper's primary contribution (§4).
//
// Sender (§4.3): HO-based retransmission.  A bounced header-only packet
// names the exact lost (MSN, PSN); the entry is DMA-queued into the per-QP
// RetransQ in host memory and fetched in PCIe batches; the CC module's
// available window regulates the retransmission rate.  A coarse-grained
// per-message timeout (§4.5) with the sRetryNo header field is the
// fallback for control-plane violations (ACK loss, HO loss, failures).
//
// Receiver (§4.4, §4.5): order-tolerant reception — every packet carries
// its RETH/MSN (and SSN for two-sided ops) so payloads are placed directly
// into application memory with no reorder buffer — and bitmap-free packet
// tracking via per-message counters, with eMSN-carrying ACKs.

#include <algorithm>
#include <vector>

#include "core/retransq.h"
#include "core/tracking.h"
#include "host/transport.h"
#include "sim/ring.h"

namespace dcp {

/// DCP's outstanding-message window (NCCL-style per-QP cap): the sender
/// keeps at most this many messages in flight, so the receiver tracks
/// exactly this many and the oracle bounds tracking state by it.
inline constexpr std::uint32_t kDcpOutstandingMsgs = 8;

struct DcpSenderStats {
  std::uint64_t ho_triggered_retx = 0;
  std::uint64_t timeout_retx_packets = 0;
  std::uint64_t pcie_fetches = 0;
  std::uint64_t stale_ho = 0;  // HO for already-completed messages
};

class DcpSender final : public SenderTransport {
 public:
  DcpSender(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg);

  void on_packet(Packet pkt) override;
  bool done() const override { return una_msn_ >= layout_.num_msgs; }

  const DcpSenderStats& dcp_stats() const { return dstats_; }
  const RetransQ& retransq() const { return rq_; }
  std::uint32_t una_msn() const { return una_msn_; }

 protected:
  bool protocol_has_packet() override;
  Packet protocol_next_packet() override;
  void on_start() override { arm_msg_timer(); }
  void checkpoint_extra(StateIO& io) override;

 private:
  Packet build_packet(std::uint32_t psn, bool retransmit, std::uint8_t retry_no);
  void start_fetch();
  void on_fetch_done();
  void arm_msg_timer();
  void on_msg_timeout();
  std::uint8_t retry_of(std::uint32_t msn) const { return sretry_[msn]; }
  std::uint64_t inflight_bytes_estimate() const;

  MessageLayout layout_;
  RetransQ rq_;
  bool fetch_in_flight_ = false;
  std::size_t fetch_batch_ = 0;  // batch size of the PCIe fetch in flight
  // Packet-conservation flow control (the paper's `awin`): every
  // transmission is eventually accounted either by the receiver's
  // cumulative arrival counter (rcnt, carried in ACKs) or by a bounced HO.
  //   inflight = sent − rcnt − ho_arrivals − flushed
  // `flushed_` compensates for silent drops, written off by the coarse
  // timeout.  All four counters are monotone.
  std::uint64_t rcnt_ = 0;      // latest receiver arrival count seen
  std::uint64_t ho_total_ = 0;  // every HO arrival, stale or not
  std::uint64_t flushed_ = 0;
  Ring<std::uint32_t> timeout_retx_;  // PSNs queued by the coarse timer
  std::vector<std::uint8_t> sretry_;  // per-message timeout round
  std::uint32_t snd_nxt_ = 0;
  std::uint32_t una_msn_ = 0;  // smallest unacknowledged MSN
  // The coarse timer fires only after a *quiet* period with no forward
  // progress (no ACK advance, no HO arrival) and no recovery in flight;
  // consecutive rounds for the same message back off exponentially.
  Time last_progress_ = 0;
  int timeout_backoff_ = 1;
  DcpSenderStats dstats_;
  // PCIe fetch completion: fires once per fetch; persistent first-level slot.
  Timer fetch_done_{sim_, [this] { on_fetch_done(); }};
  // The coarse per-message timer is deadline-class: one entry per flow
  // would otherwise park in the hot heap for the flow's whole life.
  Timer msg_timer_{sim_, [this] { on_msg_timeout(); }};
};

struct DcpReceiverStats {
  std::uint64_t ho_bounced = 0;
  std::uint64_t stale_retry_packets = 0;  // counter receiver only
  std::uint64_t counter_resets = 0;       // counter receiver only
};

/// The receiver datapath both §4.5 trackers share: the HO bounce (§4.1
/// step 2), the eMSN ACK with its cumulative arrival credit, the ACK
/// keepalive, CNPs and per-message completion accounting.  A subclass only
/// places data packets in its tracker and applies its duplicate rule.  The
/// helpers are non-virtual and take the eMSN from the caller, so a
/// tracker's packet path makes no virtual call; emsn() serves only the
/// keepalive timer and complete().
class DcpReceiverBase : public ReceiverTransport {
 public:
  bool complete() const final { return emsn() >= layout_.num_msgs; }
  /// Expected MSN: every message below it has completed.
  virtual std::uint32_t emsn() const = 0;
  const DcpReceiverStats& dcp_stats() const { return dstats_; }

 protected:
  DcpReceiverBase(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg);

  /// Everything an arrival does before tracking: bounces a header-only
  /// packet; for a data packet counts it, feeds the keepalive, sends the
  /// every-8-arrivals credit ACK and a CNP if due.  True iff `pkt` is a data
  /// packet for the tracker to place.
  bool admit(const Packet& pkt, std::uint32_t emsn);
  void send_emsn_ack(std::uint32_t emsn);
  /// Messages [from, to) completed, in eMSN order: accounts their bytes,
  /// reports them to the oracle, ACKs eMSN `to` and raises the flow's
  /// completion once every message is in.
  void complete_messages(std::uint32_t from, std::uint32_t to);
  void checkpoint_extra(StateIO& io) override;

  MessageLayout layout_;
  DcpReceiverStats dstats_;

 private:
  void bounce_header_only(const Packet& pkt);
  void arm_ack_keepalive();
  void on_keepalive();

  // DCP ACKs are droppable at over-threshold switches (§4.2), and a lost
  // eMSN ACK can stall a message-window-limited sender until the coarse
  // timeout.  The receiver therefore repeats its latest eMSN ACK whenever
  // the QP goes quiet ("sends ACKs ... if necessary", §4.1): indefinitely
  // with exponential backoff while messages are incomplete (more data must
  // be coming), and a bounded number of times after completion (the final
  // ACK might have died).  The sender's coarse timeout stays the last
  // resort.  Deadline-class: one per flow, fires only on quiet QPs.
  Time last_activity_ = 0;
  Time ka_backoff_ = microseconds(50);
  int post_complete_kas_ = 0;
  Time last_echo_ = -1;  // latest data packet's transmit timestamp (RTT echo)
  Timer keepalive_{sim_, [this] { on_keepalive(); }};
};

/// The paper's receiver: bitmap-free tracking with per-message counters
/// and sRetryNo/rRetryNo reconciliation across timeout rounds.
class DcpReceiver final : public DcpReceiverBase {
 public:
  DcpReceiver(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg);

  void on_packet(Packet pkt) override;
  std::uint32_t emsn() const override { return tracker_.emsn(); }

  const MessageCounterTracker& tracker() const { return tracker_; }

 protected:
  void checkpoint_extra(StateIO& io) override;

 private:
  MessageCounterTracker tracker_;
  std::vector<std::uint8_t> rretry_;  // ring: per outstanding message slot
};

/// §4.5 "Orthogonality": a DCP receiver that keeps a traditional
/// per-packet bitmap instead of the bitmap-free counters, on the same
/// datapath (tests/test_dcp_transport.cpp checks that the tracker is
/// invisible to the protocol).  It costs n bits instead of log2(n) — the
/// trade-off Table 3 quantifies — and is naturally idempotent across
/// timeout rounds.  Exists to demonstrate that HO-based retransmission and
/// order-tolerant reception do not depend on the counting scheme.
class DcpBitmapReceiver final : public DcpReceiverBase {
 public:
  DcpBitmapReceiver(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg);

  void on_packet(Packet pkt) override;
  std::uint32_t emsn() const override { return emsn_; }

  std::uint64_t tracking_bytes() const { return (received_.size() + 7) / 8; }

 protected:
  void checkpoint_extra(StateIO& io) override;

 private:
  std::vector<bool> received_;  // the bitmap the paper's design eliminates
  std::uint32_t emsn_ = 0;
  std::uint32_t scan_ = 0;  // first PSN not known-received
};

using DcpFactory = TransportPair<DcpSender, DcpReceiver>;

/// Wire size of a DCP data packet header for the given operation: 57 B base
/// (incl. MSN), plus RETH in *every* packet for one-sided ops, plus SSN for
/// two-sided ops (Fig. 4a).
std::uint32_t dcp_data_header_bytes(RdmaOp op);

}  // namespace dcp
