#pragma once
// Transport framework: flow descriptors, per-flow sender/receiver state
// machines, and the factory the experiment harness uses to instantiate a
// reliability scheme (GBN / IRN / MP-RDMA / RACK-TLP / Timeout / DCP).
//
// Senders are *pulled* by the host NIC scheduler (see rnic_scheduler.h),
// mirroring how a real RNIC's QP scheduler arbitrates among active QPs:
// the NIC asks each active QP whether it has an eligible packet (window
// open, pacing timer expired) and transmits one packet per grant.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "cc/cc.h"
#include "cc/dcqcn.h"
#include "net/packet.h"
#include "sim/logger.h"
#include "sim/simulator.h"

namespace dcp {

class Host;

struct FlowSpec {
  FlowId id = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint64_t bytes = 0;
  Time start_time = 0;
  RdmaOp op = RdmaOp::kWrite;
  /// Message granularity: the flow is posted as ceil(bytes / msg_bytes)
  /// WQEs.  0 means one message for the whole flow.
  std::uint64_t msg_bytes = 0;
  std::uint16_t sport = 0;  // ECMP entropy, assigned by the network
  int group = -1;           // workload tag (incast victim, collective group)
  bool background = true;
};

struct TransportConfig {
  CcConfig cc;
  // Retransmission timers.
  Time rto_high = microseconds(320);
  Time rto_low = microseconds(100);
  // DCP specifics.
  Time dcp_msg_timeout = milliseconds(1);    // coarse-grained fallback (§4.5)
  std::uint32_t retrans_batch = 16;          // RetransQ entries per PCIe fetch
  Time pcie_rtt = microseconds(1);           // host memory round trip
  // FEC transport (transports/fec.h): (k, m) parity-group geometry, the
  // fire-and-forget stream window and the receiver's quiet-period NACK
  // delay.  make_scheme sets both for kFec.
  std::uint32_t fec_k = 8;
  std::uint32_t fec_m = 2;
  std::uint64_t fec_stream_window_bytes = 0;
  Time fec_nack_delay = 0;
};

struct SenderStats {
  std::uint64_t data_packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t retransmitted_packets = 0;
  std::uint64_t spurious_retransmissions = 0;  // retransmitted but not lost
  std::uint64_t timeouts = 0;
  std::uint64_t ho_received = 0;
  std::uint64_t cnp_received = 0;
  std::uint64_t parity_packets_sent = 0;  // FEC redundancy overhead
};

/// Per-flow sender state machine.  Subclasses implement the protocol; the
/// base handles CC pacing and NIC integration.
class SenderTransport {
 public:
  SenderTransport(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg);
  virtual ~SenderTransport() = default;
  SenderTransport(const SenderTransport&) = delete;
  SenderTransport& operator=(const SenderTransport&) = delete;

  /// Activates the flow (registers with the NIC scheduler).
  void start();

  /// Control-plane packet (ACK/SACK/NACK/CNP/bounced HO) arriving from the
  /// network.
  virtual void on_packet(Packet pkt) = 0;

  /// All data delivered and acknowledged.
  virtual bool done() const = 0;

  // --- NIC pull interface --------------------------------------------------
  bool has_packet(Time now);
  /// Earliest time a packet could become eligible purely by pacing;
  /// kTimeInfinity when blocked on protocol events (ACKs).
  Time next_eligible(Time now);
  /// Dequeues the next packet; only valid after has_packet() returned true.
  Packet next_packet();

  const FlowSpec& spec() const { return spec_; }
  const SenderStats& stats() const { return stats_; }
  CongestionControl& cc() { return *cc_; }
  Time start_time() const { return started_at_; }

  /// Checkpoint hook (sim/snapshot.h): base fields + CC + protocol state
  /// (checkpoint_extra).  Transports without snapshot support fail the
  /// stream, which callers surface as "scheme not snapshottable".
  void checkpoint(StateIO& io);

 protected:
  virtual bool protocol_has_packet() = 0;
  virtual Packet protocol_next_packet() = 0;
  virtual void on_start() {}
  /// Protocol-specific state; the default marks the scheme unsupported.
  virtual void checkpoint_extra(StateIO& io);

  /// Notifies the NIC that this sender may have become eligible (e.g. an
  /// ACK opened the window).
  void kick_nic();
  /// Marks the flow finished: deregisters from the NIC and fires the
  /// network completion hook.
  void finish();

  /// Total packets in this flow given kMtuPayload.
  std::uint32_t total_packets() const { return total_pkts_; }
  std::uint32_t payload_of(std::uint32_t psn) const;
  /// Builds a data packet skeleton for the given PSN (addressing, sizes,
  /// ECN capability); protocol fills sequence specifics.
  Packet make_data_packet(std::uint32_t psn, std::uint32_t header_bytes);

  Simulator& sim_;
  Host& host_;
  FlowSpec spec_;
  TransportConfig cfg_;
  std::unique_ptr<CongestionControl> cc_;
  SenderStats stats_;
  Time started_at_ = -1;
  bool finished_ = false;

 private:
  Time next_allowed_ = 0;  // CC pacing gate
  std::uint32_t total_pkts_ = 0;
};

struct ReceiverStats {
  std::uint64_t data_packets = 0;
  std::uint64_t duplicate_packets = 0;
  std::uint64_t out_of_order_packets = 0;
  std::uint64_t bytes_received = 0;   // unique payload bytes
  std::uint64_t ho_received = 0;
  std::uint64_t acks_sent = 0;
  // FEC recovery split: chunks reconstructed by parity decode vs chunks
  // that needed a NACK'd retransmission to arrive.
  std::uint64_t decode_recovered_packets = 0;
  std::uint64_t nack_recovered_packets = 0;
};

/// Per-flow receiver state machine.
class ReceiverTransport {
 public:
  ReceiverTransport(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg);
  virtual ~ReceiverTransport() = default;
  ReceiverTransport(const ReceiverTransport&) = delete;
  ReceiverTransport& operator=(const ReceiverTransport&) = delete;

  virtual void on_packet(Packet pkt) = 0;
  virtual bool complete() const = 0;

  const FlowSpec& spec() const { return spec_; }
  const ReceiverStats& stats() const { return stats_; }

  /// Checkpoint hook (sim/snapshot.h); see SenderTransport::checkpoint.
  void checkpoint(StateIO& io);

 protected:
  /// Protocol-specific state; the default marks the scheme unsupported.
  virtual void checkpoint_extra(StateIO& io);
  /// Sends a control packet (ACK/SACK/CNP/bounced HO) back toward the
  /// sender through the NIC's high-priority control queue.
  void send_control(Packet pkt);
  /// Builds a control packet skeleton addressed to the sender.
  Packet make_control(PktType type, std::uint32_t wire_bytes);
  /// Fires the network's receiver-completion hook (exactly once).
  void mark_complete();

  std::uint32_t total_packets() const { return total_pkts_; }

  Simulator& sim_;
  Host& host_;
  FlowSpec spec_;
  TransportConfig cfg_;
  ReceiverStats stats_;
  CnpGenerator cnp_;
  bool ecn_enabled_ = false;

 private:
  bool completion_fired_ = false;
  std::uint32_t total_pkts_ = 0;
};

/// Instantiates the two ends of a flow for a given scheme.
class TransportFactory {
 public:
  virtual ~TransportFactory() = default;
  virtual std::unique_ptr<SenderTransport> make_sender(Simulator& sim, Host& host,
                                                       const FlowSpec& spec,
                                                       const TransportConfig& cfg) = 0;
  virtual std::unique_ptr<ReceiverTransport> make_receiver(Simulator& sim, Host& host,
                                                           const FlowSpec& spec,
                                                           const TransportConfig& cfg) = 0;
};

/// Every scheme's factory: builds sender S and receiver R from (sim, host,
/// spec, cfg).  Each scheme names its pair, e.g. GbnFactory in gbn.h.
template <class S, class R>
class TransportPair final : public TransportFactory {
 public:
  std::unique_ptr<SenderTransport> make_sender(Simulator& sim, Host& host, const FlowSpec& spec,
                                               const TransportConfig& cfg) override {
    return std::make_unique<S>(sim, host, spec, cfg);
  }
  std::unique_ptr<ReceiverTransport> make_receiver(Simulator& sim, Host& host,
                                                   const FlowSpec& spec,
                                                   const TransportConfig& cfg) override {
    return std::make_unique<R>(sim, host, spec, cfg);
  }
};

}  // namespace dcp
