#pragma once
// The simulated packet and the RoCEv2 + DCP header model.
//
// We do not carry payload bytes — only sizes — but every header field the
// protocols actually consult is modeled explicitly, including the DCP
// extensions of Fig. 4: the 2-bit DCP tag in the IP ToS field, the MSN,
// the SSN for two-sided operations, sRetryNo in data packets, eMSN in ACKs,
// and the RETH carried in *every* packet of a Write (not just the first).
//
// Layout: the pooled datapath stores each packet as two records (see
// PacketPool).  PacketHot is the single cache line the switch, port, queue
// and lane-scheduler code touches per hop; PacketCold holds the fields only
// the host transports read (RETH, DCP sequencing beyond the PSN, tracing
// bookkeeping), fetched once at delivery.  The flat Packet struct remains
// the by-value API for transports, tests and tools — an implicit gather
// constructor from PacketHot keeps existing call sites compiling, and
// PacketHot::assign() is the scatter at injection time.

#include <cstdint>

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

/// The fields no switch, port or lane touches: DCP sequencing beyond the
/// PSN/ACK pair, the RETH, and tracing bookkeeping.  Lives in its own pool
/// slab, permanently paired with a PacketHot slot, and is initialized
/// lazily — a packet that dies in the fabric never writes these bytes.
/// Fields are grouped by size so the record packs without padding.
struct PacketCold {
  std::uint64_t remote_addr = 0;  // RETH address (order-tolerant reception, §4.4)
  Time echo_ts = -1;              // ACKs echo the data packet's send time (RTT)
  Time sent_at = 0;               // when the sender injected it
  std::uint64_t uid = 0;          // unique per transmission (debugging/tracing)
  std::uint32_t msn = 0;          // message sequence number (DCP)
  std::uint32_t ssn = 0;          // send sequence number (two-sided ops)
  std::uint32_t sack_psn = 0;     // PSN selectively acknowledged (IRN SACK)
  std::uint32_t emsn = 0;         // DCP ACK: expected MSN
  RdmaOp op = RdmaOp::kWrite;
  std::uint8_t retry_no = 0;      // DCP sRetryNo (timeout round)
  bool last_of_msg = false;
  bool last_of_flow = false;
  bool has_reth = false;          // RETH present (every DCP Write packet)
  bool is_retransmit = false;
};

struct PacketHot;

/// The flat by-value packet: the union of the hot and cold records, used
/// by transports, wire codecs, observers, tests and tools.  Fields are
/// ordered by size (8/4/2/1 bytes) so the struct carries zero padding.
struct Packet {
  // ---- 8-byte fields -----------------------------------------------------
  FlowId flow = 0;                // flow / QP identifier (globally unique)
  std::uint64_t remote_addr = 0;  // RETH address (order-tolerant reception)
  Time echo_ts = -1;              // ACKs echo the data packet's send time (RTT)
  Time sent_at = 0;               // when the sender injected it
  std::uint64_t uid = 0;          // unique per transmission (debugging/tracing)

  // ---- 4-byte fields -----------------------------------------------------
  NodeId src = kInvalidNode;        // originating host
  NodeId dst = kInvalidNode;        // destination host
  std::uint32_t wire_bytes = 0;     // total size on the wire
  std::uint32_t payload_bytes = 0;  // application bytes carried
  std::uint32_t psn = 0;            // packet sequence number within the flow
  std::uint32_t msn = 0;            // message sequence number (DCP)
  std::uint32_t ssn = 0;            // send sequence number (two-sided ops)
  std::uint32_t ack_psn = 0;        // cumulative ACK / expected PSN
  std::uint32_t sack_psn = 0;       // PSN selectively acknowledged (IRN SACK)
  std::uint32_t emsn = 0;           // DCP ACK: expected MSN
  std::uint32_t path_id = 0;        // entropy value; MP-RDMA virtual path
  // Switch-internal: ingress port the packet was buffered against (for
  // shared-buffer / PFC accounting).  Reset at every hop.
  std::uint32_t acct_in_port = UINT32_MAX;

  // ---- 2-byte fields -----------------------------------------------------
  std::uint16_t sport = 0;     // UDP source port (ECMP entropy)
  std::uint16_t dport = 4791;  // RoCEv2

  // ---- 1-byte fields -----------------------------------------------------
  PktType type = PktType::kData;
  DcpTag tag = DcpTag::kNonDcp;
  RdmaOp op = RdmaOp::kWrite;
  QueueClass queue_class = QueueClass::kData;
  std::uint8_t pause_class = 0;  // PFC frames: the paused priority class
  std::uint8_t retry_no = 0;     // DCP sRetryNo (timeout round)
  bool last_of_msg = false;
  bool last_of_flow = false;
  bool has_reth = false;  // RETH present (every DCP Write packet)
  bool ecn_capable = false;
  bool ecn_ce = false;  // CE mark applied by a switch
  bool is_retransmit = false;

  Packet() = default;
  /// Gather from a pooled hot/cold pair.  Implicit on purpose: it keeps
  /// every `const Packet&` call site (observers, transports taking the
  /// packet by value) compiling against a PacketHot, while the hot path
  /// stays explicit about where the gather happens.
  Packet(const PacketHot& h);  // NOLINT(google-explicit-constructor)

  bool is_control() const { return type != PktType::kData; }
};

/// Count of lazy cold-record initializations on the calling thread —
/// incremented by PacketHot::cold() only.  Test hook: proves the fabric
/// path never touches the cold record (see tests/test_packet_layout.cpp).
inline std::uint64_t& packet_cold_init_count() {
  thread_local std::uint64_t n = 0;
  return n;
}

/// The per-hop packet record: exactly the bytes switch classification,
/// egress queuing and the lane scheduler read, packed into one cache line.
/// `cold_slot` points at the permanently-paired PacketCold in the pool's
/// parallel slab; `cold_valid` says whether that record holds this
/// packet's data yet (PacketPool only initializes the hot record on
/// acquire — the cold record initializes lazily via cold() or eagerly via
/// assign()).
struct alignas(64) PacketHot {
  // ---- 8-byte fields -----------------------------------------------------
  FlowId flow = 0;
  PacketCold* cold_slot = nullptr;  // pool-owned pairing; never reassigned

  // ---- 4-byte fields -----------------------------------------------------
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint32_t wire_bytes = 0;
  std::uint32_t payload_bytes = 0;
  std::uint32_t psn = 0;
  std::uint32_t ack_psn = 0;
  std::uint32_t path_id = 0;
  std::uint32_t acct_in_port = UINT32_MAX;

  // ---- 2-byte fields -----------------------------------------------------
  std::uint16_t sport = 0;
  std::uint16_t dport = 4791;

  // ---- 1-byte fields -----------------------------------------------------
  PktType type = PktType::kData;
  DcpTag tag = DcpTag::kNonDcp;
  QueueClass queue_class = QueueClass::kData;
  std::uint8_t pause_class = 0;
  bool ecn_capable = false;
  bool ecn_ce = false;
  bool cold_valid = false;
  // 5 bytes of tail padding up to the 64-byte alignment; adding a field
  // beyond them doubles sizeof and trips the static_assert below.

  bool is_control() const { return type != PktType::kData; }

  /// Resets the hot record to a fresh packet's defaults.  The cold record
  /// is NOT written — cold_valid=false makes cold() (and the gather)
  /// treat it as all-defaults, so a blank acquire costs one cache line.
  void init_hot() {
    PacketCold* keep = cold_slot;
    *this = PacketHot{};
    cold_slot = keep;
  }

  /// The paired cold record, initialized to defaults on first touch.
  PacketCold& cold() {
    if (!cold_valid) {
      *cold_slot = PacketCold{};
      cold_valid = true;
      ++packet_cold_init_count();
    }
    return *cold_slot;
  }

  /// Full scatter from a flat packet (the one copy a packet's lifetime
  /// pays, at injection into the pooled datapath).
  void assign(const Packet& f) {
    flow = f.flow;
    src = f.src;
    dst = f.dst;
    wire_bytes = f.wire_bytes;
    payload_bytes = f.payload_bytes;
    psn = f.psn;
    ack_psn = f.ack_psn;
    path_id = f.path_id;
    acct_in_port = f.acct_in_port;
    sport = f.sport;
    dport = f.dport;
    type = f.type;
    tag = f.tag;
    queue_class = f.queue_class;
    pause_class = f.pause_class;
    ecn_capable = f.ecn_capable;
    ecn_ce = f.ecn_ce;
    PacketCold& c = *cold_slot;
    c.remote_addr = f.remote_addr;
    c.echo_ts = f.echo_ts;
    c.sent_at = f.sent_at;
    c.uid = f.uid;
    c.msn = f.msn;
    c.ssn = f.ssn;
    c.sack_psn = f.sack_psn;
    c.emsn = f.emsn;
    c.op = f.op;
    c.retry_no = f.retry_no;
    c.last_of_msg = f.last_of_msg;
    c.last_of_flow = f.last_of_flow;
    c.has_reth = f.has_reth;
    c.is_retransmit = f.is_retransmit;
    cold_valid = true;
  }
};

inline Packet::Packet(const PacketHot& h)
    : flow(h.flow),
      src(h.src),
      dst(h.dst),
      wire_bytes(h.wire_bytes),
      payload_bytes(h.payload_bytes),
      psn(h.psn),
      ack_psn(h.ack_psn),
      path_id(h.path_id),
      acct_in_port(h.acct_in_port),
      sport(h.sport),
      dport(h.dport),
      type(h.type),
      tag(h.tag),
      queue_class(h.queue_class),
      pause_class(h.pause_class),
      ecn_capable(h.ecn_capable),
      ecn_ce(h.ecn_ce) {
  // A never-touched cold record gathers as the defaults it would have been
  // initialized to — without mutating the pooled slot.
  if (h.cold_valid) {
    const PacketCold& c = *h.cold_slot;
    remote_addr = c.remote_addr;
    echo_ts = c.echo_ts;
    sent_at = c.sent_at;
    uid = c.uid;
    msn = c.msn;
    ssn = c.ssn;
    sack_psn = c.sack_psn;
    emsn = c.emsn;
    op = c.op;
    retry_no = c.retry_no;
    last_of_msg = c.last_of_msg;
    last_of_flow = c.last_of_flow;
    has_reth = c.has_reth;
    is_retransmit = c.is_retransmit;
  }
}

// The layout contract the hot path is built on.  Growth fails the build
// loudly instead of silently fattening every hop (alignas(64) rounds any
// overflow straight to 128).
static_assert(sizeof(PacketHot) == 64, "PacketHot must stay one cache line");
static_assert(alignof(PacketHot) == 64, "PacketHot must be cache-line aligned");
static_assert(sizeof(PacketCold) == 56, "PacketCold grew — check field packing");
static_assert(sizeof(Packet) == 104, "Packet grew or picked up padding");

/// Builds the ECMP hash input from the 5-tuple plus the path entropy field.
std::uint64_t ecmp_key(const Packet& p);
std::uint64_t ecmp_key(const PacketHot& p);

}  // namespace dcp
