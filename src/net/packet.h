#pragma once
// The simulated packet and the RoCEv2 + DCP header model.
//
// We do not carry payload bytes — only sizes — but every header field the
// protocols actually consult is modeled explicitly, including the DCP
// extensions of Fig. 4: the 2-bit DCP tag in the IP ToS field, the MSN,
// the SSN for two-sided operations, sRetryNo in data packets, eMSN in ACKs,
// and the RETH carried in *every* packet of a Write (not just the first).

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "sim/time.h"

namespace dcp {

using NodeId = std::uint32_t;
using FlowId = std::uint64_t;
inline constexpr NodeId kInvalidNode = UINT32_MAX;

/// 2-bit tag in the IP ToS field (paper §4.2).
enum class DcpTag : std::uint8_t {
  kNonDcp = 0b00,      // dropped when over threshold
  kAck = 0b01,         // DCP ACK; dropped when over threshold
  kData = 0b10,        // trimmed to header-only when over threshold
  kHeaderOnly = 0b11,  // enqueued into the control queue, never trimmed
};

enum class PktType : std::uint8_t {
  kData,        // payload-carrying data packet
  kAck,         // cumulative ACK (GBN/DCP eMSN ACK/TCP ACK)
  kSack,        // selective ACK (IRN)
  kNack,        // NAK/duplicate indication (GBN)
  kCnp,         // DCQCN congestion notification packet
  kHeaderOnly,  // trimmed data packet (switch -> receiver -> sender)
  kPfcPause,    // PFC PAUSE frame (hop-local)
  kPfcResume,   // PFC RESUME frame (hop-local)
};

/// RDMA operation carried by a data packet.
enum class RdmaOp : std::uint8_t { kWrite, kWriteWithImm, kSend };

/// Header byte sizes (paper §4.2 footnote: 57 B = 14 MAC + 20 IP + 8 UDP +
/// 12 BTH + 3 MSN).
struct HeaderSizes {
  static constexpr std::uint32_t kEth = 14;
  static constexpr std::uint32_t kIp = 20;
  static constexpr std::uint32_t kUdp = 8;
  static constexpr std::uint32_t kBth = 12;
  static constexpr std::uint32_t kMsn = 3;        // DCP MSN field
  static constexpr std::uint32_t kReth = 16;      // remote address + rkey + len
  static constexpr std::uint32_t kSsn = 3;        // DCP SSN field (two-sided)
  static constexpr std::uint32_t kAeth = 4;
  static constexpr std::uint32_t kEmsn = 3;       // DCP eMSN in ACKs

  static constexpr std::uint32_t kRoceData = kEth + kIp + kUdp + kBth;       // 54
  static constexpr std::uint32_t kDcpHeaderOnly = kRoceData + kMsn;          // 57
  static constexpr std::uint32_t kRoceAck = kEth + kIp + kUdp + kBth + kAeth;  // 58
  static constexpr std::uint32_t kDcpAck = kRoceAck + kEmsn;                 // 61
  static constexpr std::uint32_t kPfcFrame = 64;
  static constexpr std::uint32_t kCnp = kRoceAck;
};

/// Payload bytes of a full data packet (the 1 KB MTU of §6); a flow of B
/// bytes is ceil(B / kMtuPayload) packets.
inline constexpr std::uint32_t kMtuPayload = 1000;

/// Queue class at switch egress ports.
enum class QueueClass : std::uint8_t {
  kData = 0,     // normal data queue (lossy under DCP; lossless under PFC)
  kControl = 1,  // DCP control queue for header-only packets
};
inline constexpr int kNumQueueClasses = 2;

/// The simulated packet: one flat record, used by value in transports,
/// wire codecs, observers, tests and tools, and held in a 64-byte-aligned
/// pool slot (PacketPool) while it crosses the fabric.
///
/// Layout contract.  The fields a switch, port, queue or delivery lane
/// reads come first and end at byte kPerHopBytes, inside the first cache
/// line of the slot, so a hop touches one line; the fields only the host
/// transports read (the RETH, DCP sequencing beyond the PSN) follow.
/// Within each part, fields are grouped by size so the record carries no
/// padding, which also keeps snapshot images a pure function of values.
struct Packet {
  // ---- per hop -----------------------------------------------------------
  FlowId flow = 0;                  // flow / QP identifier (globally unique)
  NodeId src = kInvalidNode;        // originating host
  NodeId dst = kInvalidNode;        // destination host
  std::uint32_t wire_bytes = 0;     // total size on the wire
  std::uint32_t payload_bytes = 0;  // application bytes carried
  std::uint32_t psn = 0;            // packet sequence number within the flow
  std::uint32_t ack_psn = 0;        // cumulative ACK / expected PSN
  std::uint32_t path_id = 0;        // entropy value; MP-RDMA virtual path
  // Switch-internal: ingress port the packet was buffered against (for
  // shared-buffer / PFC accounting).  Reset at every hop.
  std::uint32_t acct_in_port = UINT32_MAX;
  std::uint16_t sport = 0;     // UDP source port (ECMP entropy)
  std::uint16_t dport = 4791;  // RoCEv2
  PktType type = PktType::kData;
  DcpTag tag = DcpTag::kNonDcp;
  QueueClass queue_class = QueueClass::kData;
  std::uint8_t pause_class = 0;  // PFC frames: the paused priority class
  bool ecn_capable = false;
  bool ecn_ce = false;  // CE mark applied by a switch

  // ---- host only ---------------------------------------------------------
  RdmaOp op = RdmaOp::kWrite;
  std::uint8_t retry_no = 0;  // DCP sRetryNo (timeout round)
  bool last_of_msg = false;
  bool last_of_flow = false;
  bool has_reth = false;  // RETH present (every DCP Write packet)
  bool is_retransmit = false;
  std::uint64_t remote_addr = 0;  // RETH address (order-tolerant reception)
  Time echo_ts = -1;              // ACKs echo the data packet's send time (RTT)
  Time sent_at = 0;               // when the sender injected it
  std::uint32_t msn = 0;          // message sequence number (DCP)
  std::uint32_t ssn = 0;          // send sequence number (two-sided ops)
  std::uint32_t sack_psn = 0;     // PSN selectively acknowledged (IRN SACK)
  std::uint32_t emsn = 0;         // DCP ACK: expected MSN

  bool is_control() const { return type != PktType::kData; }
};

/// Bytes of the per-hop prefix: every field before `op`.
inline constexpr std::size_t kPerHopBytes = 50;

static_assert(offsetof(Packet, op) == kPerHopBytes, "the per-hop prefix must end at `op`");
static_assert(offsetof(Packet, flow) < kPerHopBytes && offsetof(Packet, src) < kPerHopBytes &&
                  offsetof(Packet, dst) < kPerHopBytes &&
                  offsetof(Packet, wire_bytes) < kPerHopBytes &&
                  offsetof(Packet, payload_bytes) < kPerHopBytes &&
                  offsetof(Packet, psn) < kPerHopBytes &&
                  offsetof(Packet, ack_psn) < kPerHopBytes &&
                  offsetof(Packet, path_id) < kPerHopBytes &&
                  offsetof(Packet, acct_in_port) < kPerHopBytes &&
                  offsetof(Packet, sport) < kPerHopBytes && offsetof(Packet, dport) < kPerHopBytes &&
                  offsetof(Packet, type) < kPerHopBytes && offsetof(Packet, tag) < kPerHopBytes &&
                  offsetof(Packet, queue_class) < kPerHopBytes &&
                  offsetof(Packet, pause_class) < kPerHopBytes &&
                  offsetof(Packet, ecn_capable) < kPerHopBytes &&
                  offsetof(Packet, ecn_ce) < kPerHopBytes,
              "a field the switch, port, queue or lane reads left the per-hop prefix");
static_assert(kPerHopBytes <= 64, "a hop must touch one cache line");
static_assert(std::has_unique_object_representations_v<Packet>, "Packet picked up padding");
static_assert(sizeof(Packet) == 96, "Packet grew");

/// Builds the ECMP hash input from the 5-tuple plus the path entropy field.
std::uint64_t ecmp_key(const Packet& p);

}  // namespace dcp
