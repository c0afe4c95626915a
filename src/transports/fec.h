#pragma once
// Erasure-coded reliability tier (the seventh scheme): the sender cuts the
// message into (k, m) parity groups — k data chunks followed by m parity
// chunks of an MDS erasure code — and streams the whole stride
// fire-and-forget, gated only by a byte window.  The receiver completes a
// group as soon as ANY k of its k + m chunks arrive (counting
// parity-decoded data as delivered) and group-ACKs it; only a group that
// loses MORE than m chunks falls back to per-group NACK selective repeat,
// driven by a quiet-period timer on the receiver plus the usual RTO
// backstop on the sender.  Built for lossy-beyond-the-datacenter links
// (10-100 ms RTT, 1-20% loss) where retransmission-only recovery pays a
// full RTT per loss and PFC/trimming are structurally impossible.

#include <cstdint>
#include <vector>

#include "host/transport.h"
#include "transports/selective_repeat.h"

namespace dcp {

/// Wire layout shared by both ends: data packets 0..total_data-1 are dealt
/// into groups of k, each group followed by its m parity packets, and the
/// whole train is numbered by one strictly increasing wire PSN.  A tail
/// group with rem < k data chunks still carries m parity chunks, so it is
/// a (rem, m) code.
struct FecLayout {
  std::uint32_t k = 1;
  std::uint32_t m = 1;
  std::uint32_t total_data = 0;
  std::uint32_t full_groups = 0;
  std::uint32_t rem = 0;         // data chunks in the tail group (0 = none)
  std::uint32_t groups = 0;
  std::uint32_t wire_total = 0;  // data + parity packets on the wire

  FecLayout(std::uint32_t k_in, std::uint32_t m_in, std::uint32_t data_pkts) {
    k = k_in == 0 ? 1 : k_in;
    m = m_in == 0 ? 1 : m_in;
    total_data = data_pkts;
    full_groups = total_data / k;
    rem = total_data % k;
    groups = full_groups + (rem != 0 ? 1 : 0);
    wire_total = full_groups * (k + m) + (rem != 0 ? rem + m : 0);
  }

  std::uint32_t stride() const { return k + m; }
  std::uint32_t k_of(std::uint32_t g) const { return g < full_groups ? k : rem; }
  /// Packets carry sizes, not bytes, so decoding is a count: an MDS code
  /// rebuilds group g's data from any k_of(g) of its k_of(g) + m chunks.
  bool decodable(std::uint32_t g, std::uint32_t got_data, std::uint32_t got_parity) const {
    return got_data + got_parity >= k_of(g);
  }
  std::uint32_t wire_begin(std::uint32_t g) const { return g * stride(); }
  std::uint32_t wire_end(std::uint32_t g) const { return wire_begin(g) + k_of(g) + m; }
  std::uint32_t group_of(std::uint32_t psn) const {
    const std::uint32_t cut = full_groups * stride();
    return psn < cut ? psn / stride() : full_groups;
  }
  bool is_data(std::uint32_t psn) const {
    const std::uint32_t g = group_of(psn);
    return psn - wire_begin(g) < k_of(g);
  }
  /// Original data-packet index of a data wire PSN (caller checked is_data).
  std::uint32_t data_index(std::uint32_t psn) const {
    const std::uint32_t g = group_of(psn);
    return g * k + (psn - wire_begin(g));
  }
};

class FecSender final : public SenderTransport {
 public:
  FecSender(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg);

  void on_packet(Packet pkt) override;
  bool done() const override { return acked_groups_ >= layout_.groups; }

 protected:
  bool protocol_has_packet() override;
  Packet protocol_next_packet() override;
  void on_start() override { arm_rto(); }
  void checkpoint_extra(StateIO& io) override;

 private:
  Packet make_fec_packet(std::uint32_t wire_psn, bool retransmit);
  void advance_past_acked();
  void ack_group(std::uint32_t g);
  void queue_retx(std::uint32_t wire_psn);
  void arm_rto() { rto_.arm_deadline(cfg_.rto_high); }
  void on_rto();

  FecLayout layout_;
  std::uint32_t snd_nxt_wire_ = 0;
  std::vector<bool> group_acked_;
  std::uint32_t acked_groups_ = 0;
  // First-transmission payload bytes charged to the stream window, returned
  // when the group is acknowledged (retransmits ride the retx queue and are
  // never charged — they are what unwedges a closed window).
  std::vector<std::uint64_t> group_payload_sent_;
  std::uint64_t window_used_ = 0;
  RetxQueue retx_;  // wire PSNs, data PSNs only
  Timer rto_{sim_, [this] { on_rto(); }};  // deadline-class: re-armed per group ACK
};

class FecReceiver final : public ReceiverTransport {
 public:
  FecReceiver(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg);

  void on_packet(Packet pkt) override;
  bool complete() const override { return complete_groups_ >= layout_.groups; }

 protected:
  void checkpoint_extra(StateIO& io) override;

 private:
  struct GroupState {
    std::uint16_t got_data = 0;
    std::uint16_t got_parity = 0;
    bool complete = false;
  };

  std::uint32_t payload_of_data(std::uint32_t data_idx) const;
  void complete_group(std::uint32_t g);
  void send_group_ack(std::uint32_t g, const Packet& cause);
  void arm_nack(Time delay) { nack_timer_.arm_deadline(delay); }
  void on_nack_timer();

  FecLayout layout_;
  std::vector<bool> received_;  // indexed by wire PSN
  std::vector<GroupState> group_;
  std::uint32_t complete_groups_ = 0;
  std::uint32_t groups_done_cum_ = 0;  // contiguous complete-group cursor
  std::uint32_t max_seen_group_ = 0;
  std::uint32_t expected_wire_ = 0;  // next in-order wire PSN (OOO stat only)
  Timer nack_timer_{sim_, [this] { on_nack_timer(); }};
};

using FecFactory = TransportPair<FecSender, FecReceiver>;

}  // namespace dcp
