#include "support/wire.h"

#include <cstring>

namespace dcp::wire {
namespace {

constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
constexpr std::uint8_t kIpProtoUdp = 17;
constexpr std::uint16_t kRoceUdpPort = 4791;

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& buf) : buf_(buf) {}
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u24(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u48(std::uint64_t v) {
    u16(static_cast<std::uint16_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }

 private:
  std::vector<std::uint8_t>& buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> b) : b_(b) {}
  bool ok() const { return ok_; }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return ok_ ? b_.size() - pos_ : 0; }

  std::uint8_t u8() { return ok_ && need(1) ? b_[pos_++] : fail8(); }
  std::uint16_t u16() {
    if (!ok_ || !need(2)) return fail8();
    const std::uint16_t v = static_cast<std::uint16_t>((b_[pos_] << 8) | b_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u24() {
    if (!ok_ || !need(3)) return fail8();
    const std::uint32_t v = (static_cast<std::uint32_t>(b_[pos_]) << 16) |
                            (static_cast<std::uint32_t>(b_[pos_ + 1]) << 8) | b_[pos_ + 2];
    pos_ += 3;
    return v;
  }
  std::uint32_t u32() {
    const std::uint32_t hi = u16();
    return (hi << 16) | u16();
  }
  std::uint64_t u48() {
    const std::uint64_t hi = u16();
    return (hi << 32) | u32();
  }
  std::uint64_t u64() {
    const std::uint64_t hi = u32();
    return (hi << 32) | u32();
  }
  void skip(std::size_t n) {
    if (!need(n)) return;
    pos_ += n;
  }

 private:
  bool need(std::size_t n) {
    if (pos_ + n > b_.size()) {
      ok_ = false;
      return false;
    }
    return true;
  }
  std::uint8_t fail8() {
    ok_ = false;
    return 0;
  }
  std::span<const std::uint8_t> b_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

BthOpcode opcode_of(const Packet& pkt) {
  switch (pkt.type) {
    case PktType::kHeaderOnly:
      return BthOpcode::kDcpHeaderOnly;
    case PktType::kCnp:
      return BthOpcode::kDcpCnp;
    case PktType::kAck:
    case PktType::kSack:
    case PktType::kNack:
      return BthOpcode::kRcAck;
    default:
      break;
  }
  switch (pkt.op) {
    case RdmaOp::kWrite:
      return BthOpcode::kRcWriteOnly;
    case RdmaOp::kWriteWithImm:
      return BthOpcode::kRcWriteOnlyImm;
    case RdmaOp::kSend:
      return BthOpcode::kRcSendOnly;
  }
  return BthOpcode::kRcWriteOnly;
}

bool has_reth_header(const Packet& pkt) {
  // DCP carries the RETH in EVERY data packet of one-sided operations
  // (§4.4); trimming strips everything beyond the 57-byte base header, so
  // header-only packets have neither RETH nor SSN.
  return pkt.type == PktType::kData && pkt.op != RdmaOp::kSend;
}

bool has_ssn_header(const Packet& pkt) {
  return pkt.type == PktType::kData && pkt.op != RdmaOp::kWrite;
}

bool is_ack_like(const Packet& pkt) {
  return pkt.type == PktType::kAck || pkt.type == PktType::kSack || pkt.type == PktType::kNack;
}

}  // namespace

std::uint32_t ip_of_node(NodeId id) {
  return (10u << 24) | ((id >> 8) << 16) | ((id & 0xFF) << 8) | 1u;
}

std::uint64_t mac_of_node(NodeId id) {
  // Locally administered unicast OUI 0x02:44:43 ("DC"), low 24 bits = id.
  return (0x024443ull << 24) | (id & 0xFFFFFFu);
}

std::uint16_t ipv4_checksum(std::span<const std::uint8_t> header20) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < header20.size(); i += 2) {
    sum += static_cast<std::uint32_t>((header20[i] << 8) | header20[i + 1]);
  }
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

std::uint32_t header_bytes(const Packet& pkt) {
  std::uint32_t n = HeaderSizes::kEth + HeaderSizes::kIp + HeaderSizes::kUdp + HeaderSizes::kBth;
  if (pkt.type == PktType::kCnp) return n;  // CNP: bare BTH
  if (is_ack_like(pkt)) {
    return n + HeaderSizes::kAeth + HeaderSizes::kEmsn;  // 61 (kDcpAck)
  }
  n += HeaderSizes::kMsn;  // data & HO carry the MSN extension (57 base)
  if (has_reth_header(pkt)) n += HeaderSizes::kReth;
  if (has_ssn_header(pkt)) n += HeaderSizes::kSsn;
  return n;
}

std::vector<std::uint8_t> encode(const Packet& pkt, bool include_payload) {
  std::vector<std::uint8_t> out;
  const std::uint32_t hdr = header_bytes(pkt);
  const std::uint32_t payload = include_payload ? pkt.payload_bytes : 0;
  out.reserve(hdr + payload);
  Writer w(out);

  // --- Ethernet (14) ------------------------------------------------------
  w.u48(mac_of_node(pkt.dst));
  w.u48(mac_of_node(pkt.src));
  w.u16(kEtherTypeIpv4);

  // --- IPv4 (20) ----------------------------------------------------------
  const std::size_t ip_start = out.size();
  const std::uint16_t ip_total =
      static_cast<std::uint16_t>(hdr - HeaderSizes::kEth + pkt.payload_bytes);
  w.u8(0x45);  // version 4, IHL 5
  // ToS: ECN bits in [1:0] per RFC 3168 are used for ECT/CE; DCP claims two
  // *DSCP* bits for its tag (paper: "two bits in the ToS field").  We put
  // the DCP tag in DSCP[1:0] (ToS bits 3:2) and ECN in ToS bits 1:0.
  const std::uint8_t ecn_bits = pkt.ecn_ce ? 0b11 : (pkt.ecn_capable ? 0b10 : 0b00);
  w.u8(static_cast<std::uint8_t>((static_cast<std::uint8_t>(pkt.tag) << 2) | ecn_bits));
  w.u16(ip_total);
  w.u16(0);       // IP id
  w.u16(0x4000);  // DF
  w.u8(64);       // TTL
  w.u8(kIpProtoUdp);
  w.u16(0);  // checksum placeholder
  w.u32(ip_of_node(pkt.src));
  w.u32(ip_of_node(pkt.dst));
  const std::uint16_t csum =
      ipv4_checksum(std::span<const std::uint8_t>(out.data() + ip_start, HeaderSizes::kIp));
  out[ip_start + 10] = static_cast<std::uint8_t>(csum >> 8);
  out[ip_start + 11] = static_cast<std::uint8_t>(csum);

  // --- UDP (8) -------------------------------------------------------------
  w.u16(pkt.sport);
  w.u16(kRoceUdpPort);
  w.u16(static_cast<std::uint16_t>(ip_total - HeaderSizes::kIp));
  w.u16(0);  // RoCEv2 leaves the UDP checksum 0

  // --- BTH (12) -------------------------------------------------------------
  w.u8(static_cast<std::uint8_t>(opcode_of(pkt)));
  w.u8(pkt.last_of_msg ? 0x80 : 0x00);  // SE bit marks message boundary
  w.u16(0xFFFF);                        // pkey: default partition
  w.u8(pkt.retry_no);                   // BTH reserved byte carries sRetryNo
  w.u24(static_cast<std::uint32_t>(pkt.flow) & 0xFFFFFF);  // dest QPN
  w.u8(pkt.last_of_flow ? 0x80 : 0x00);                    // AckReq on tail
  w.u24(pkt.psn & 0xFFFFFF);

  if (pkt.type == PktType::kCnp) return out;

  if (is_ack_like(pkt)) {
    // --- AETH (4): syndrome + 24-bit MSN field (carries rcnt credit) ------
    std::uint8_t syndrome = 0x00;  // ACK
    if (pkt.type == PktType::kNack) syndrome = 0x60;      // NAK sequence error
    if (pkt.type == PktType::kSack) syndrome = 0x20;      // vendor: SACK
    w.u8(syndrome);
    w.u24(pkt.ack_psn & 0xFFFFFF);
    // --- eMSN (3): DCP extension ------------------------------------------
    w.u24(pkt.type == PktType::kSack ? (pkt.sack_psn & 0xFFFFFF) : (pkt.emsn & 0xFFFFFF));
    return out;
  }

  // --- MSN (3): DCP extension, in every data/HO packet ---------------------
  w.u24(pkt.msn & 0xFFFFFF);

  if (has_reth_header(pkt)) {
    // --- RETH (16): vaddr(8) rkey(4) length(4) -----------------------------
    w.u64(pkt.remote_addr);
    w.u32(0xDC00DC00u);  // rkey (fixed in simulation)
    w.u32(pkt.payload_bytes);
  }
  if (has_ssn_header(pkt)) {
    w.u24(pkt.ssn & 0xFFFFFF);  // --- SSN (3): DCP extension ---------------
  }

  if (include_payload) out.resize(out.size() + pkt.payload_bytes, 0);
  return out;
}

std::optional<Packet> decode(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  Packet pkt;

  // Ethernet.
  const std::uint64_t dst_mac = r.u48();
  const std::uint64_t src_mac = r.u48();
  if (r.u16() != kEtherTypeIpv4) return std::nullopt;

  // IPv4.
  const std::size_t ip_start = r.pos();
  if (r.u8() != 0x45) return std::nullopt;
  const std::uint8_t tos = r.u8();
  pkt.tag = static_cast<DcpTag>((tos >> 2) & 0b11);
  pkt.ecn_ce = (tos & 0b11) == 0b11;
  pkt.ecn_capable = (tos & 0b11) != 0b00;
  const std::uint16_t ip_total = r.u16();
  r.skip(4);  // id, flags/frag
  r.skip(1);  // ttl
  if (r.u8() != kIpProtoUdp) return std::nullopt;
  const std::uint16_t stored_csum = r.u16();
  const std::uint32_t src_ip = r.u32();
  const std::uint32_t dst_ip = r.u32();
  if (!r.ok()) return std::nullopt;
  // Verify the checksum (recompute with the field zeroed).
  std::uint8_t hdr_copy[HeaderSizes::kIp];
  std::memcpy(hdr_copy, bytes.data() + ip_start, HeaderSizes::kIp);
  hdr_copy[10] = hdr_copy[11] = 0;
  if (ipv4_checksum(hdr_copy) != stored_csum) return std::nullopt;
  pkt.src = static_cast<NodeId>(((src_ip >> 16) & 0xFF) << 8 | ((src_ip >> 8) & 0xFF));
  pkt.dst = static_cast<NodeId>(((dst_ip >> 16) & 0xFF) << 8 | ((dst_ip >> 8) & 0xFF));
  if (mac_of_node(pkt.src) != src_mac || mac_of_node(pkt.dst) != dst_mac) return std::nullopt;

  // UDP.
  pkt.sport = r.u16();
  if (r.u16() != kRoceUdpPort) return std::nullopt;
  r.skip(4);  // len + csum

  // BTH.
  const auto opcode = static_cast<BthOpcode>(r.u8());
  const std::uint8_t se = r.u8();
  r.skip(2);  // pkey
  pkt.retry_no = r.u8();
  pkt.flow = r.u24();
  const std::uint8_t ackreq = r.u8();
  pkt.psn = r.u24();
  if (!r.ok()) return std::nullopt;
  pkt.last_of_msg = (se & 0x80) != 0;
  pkt.last_of_flow = (ackreq & 0x80) != 0;

  switch (opcode) {
    case BthOpcode::kDcpCnp:
      pkt.type = PktType::kCnp;
      pkt.wire_bytes = static_cast<std::uint32_t>(HeaderSizes::kEth + ip_total);
      return r.ok() ? std::optional<Packet>(pkt) : std::nullopt;

    case BthOpcode::kRcAck: {
      const std::uint8_t syndrome = r.u8();
      const std::uint32_t aeth_msn = r.u24();
      const std::uint32_t ext = r.u24();
      if (!r.ok()) return std::nullopt;
      pkt.ack_psn = aeth_msn;
      if (syndrome == 0x60) {
        pkt.type = PktType::kNack;
      } else if (syndrome == 0x20) {
        pkt.type = PktType::kSack;
        pkt.sack_psn = ext;
      } else {
        pkt.type = PktType::kAck;
        pkt.emsn = ext;
      }
      pkt.wire_bytes = static_cast<std::uint32_t>(HeaderSizes::kEth + ip_total);
      return pkt;
    }

    case BthOpcode::kDcpHeaderOnly:
    case BthOpcode::kRcWriteOnly:
    case BthOpcode::kRcWriteOnlyImm:
    case BthOpcode::kRcSendOnly:
      break;

    default:
      return std::nullopt;
  }

  pkt.type = opcode == BthOpcode::kDcpHeaderOnly ? PktType::kHeaderOnly : PktType::kData;
  pkt.op = opcode == BthOpcode::kRcSendOnly
               ? RdmaOp::kSend
               : (opcode == BthOpcode::kRcWriteOnlyImm ? RdmaOp::kWriteWithImm : RdmaOp::kWrite);
  pkt.msn = r.u24();
  if (has_reth_header(pkt)) {
    pkt.remote_addr = r.u64();
    r.skip(4);  // rkey
    pkt.payload_bytes = r.u32();
    pkt.has_reth = true;
  }
  if (has_ssn_header(pkt)) pkt.ssn = r.u24();
  if (!r.ok()) return std::nullopt;
  if (pkt.type == PktType::kHeaderOnly) pkt.queue_class = QueueClass::kControl;
  pkt.wire_bytes = static_cast<std::uint32_t>(HeaderSizes::kEth + ip_total);
  return pkt;
}

}  // namespace dcp::wire
