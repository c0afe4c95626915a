#pragma once
// CheckObserver: the simulator's one observation seam.  The invariant
// oracle attaches through it, and so does anything else that needs to
// watch packets move; the PacketTap in tests/test_wire.cpp is the template
// (record host sends, host deliveries and switch trims, arm it with
// Simulator::set_check_observer).  There is deliberately no per-hop hook,
// which would cost every switch hop a branch: hop-local PFC frames aside,
// every packet a switch forwards was emitted by a host or made by a trim.
//
// Components report protocol-visible events (host emissions and deliveries,
// switch trims and drops, wire losses, shared-buffer accounting, message and
// flow completions) to the observer installed on their Simulator.  Every
// hook site is a single null-checked pointer call, so an unarmed run pays
// one predictable branch per event and an armed run never perturbs protocol
// behaviour — the observer only reads (tests/test_check.cpp holds the
// oracle to that over 200 fuzz seeds, serial and on two shards).
//
// This header is include-only and depends on nothing above the net layer,
// so any subsystem can call hooks without a link-time dependency on the
// oracle itself (src/check/invariant_oracle.*, which lives higher in the
// library stack).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "sim/time.h"

namespace dcp {

class SharedBuffer;

/// Outcome of one BufferShadow replay step.
enum class ShadowFail : std::uint8_t { kNone, kUnderflow, kMismatch };

/// Independent replay of a SharedBuffer's conservation accounting.  The
/// struct lives here (not in the oracle) so SharedBuffer can run the
/// per-call replay *inline*: alloc/release fire once per switch hop —
/// the hottest hook pair by far — and an indirect call per hop would
/// dominate the armed cost.  The virtual observer is consulted only when
/// a step diverges (`last_fail` says how), so checking strictness is
/// unchanged while the clean path stays statically dispatched.
struct BufferShadow {
  std::uint64_t used = 0;
  std::vector<std::uint64_t> per_key;  // index = port * kNumQueueClasses + cls
  ShadowFail last_fail = ShadowFail::kNone;

  ShadowFail on_alloc(std::uint32_t port, std::uint8_t cls, std::uint64_t bytes,
                      std::uint64_t used_after) {
    used += bytes;
    const std::size_t key = static_cast<std::size_t>(port) * kNumQueueClasses + cls;
    if (key >= per_key.size()) per_key.resize(key + 1, 0);
    per_key[key] += bytes;
    last_fail = used == used_after ? ShadowFail::kNone : ShadowFail::kMismatch;
    return last_fail;
  }

  ShadowFail on_release(std::uint32_t port, std::uint8_t cls, std::uint64_t bytes,
                        std::uint64_t used_after) {
    const std::size_t key = static_cast<std::size_t>(port) * kNumQueueClasses + cls;
    if (key >= per_key.size()) per_key.resize(key + 1, 0);
    if (per_key[key] < bytes || used < bytes) {
      last_fail = ShadowFail::kUnderflow;
      return last_fail;
    }
    per_key[key] -= bytes;
    used -= bytes;
    last_fail = used == used_after ? ShadowFail::kNone : ShadowFail::kMismatch;
    return last_fail;
  }
};

/// Where a packet observably died.  Every loss site in the simulator maps
/// to exactly one of these, which is what lets the oracle close its
/// conservation ledgers (a trimmed packet must surface as a delivery or as
/// one of these).
enum class DropSite : std::uint8_t {
  kSwitchNoRoute,        // all candidate egress ports withdrawn
  kSwitchInjected,       // SwitchConfig::inject_loss_rate forced drop
  kSwitchCtrlFault,      // control-queue fault loss (ho_loss plans)
  kSwitchHoBufferFull,   // HO arrived to a full shared buffer
  kSwitchOverThreshold,  // lossy-mode tail drop / DCP ACK drop (§4.2)
  kSwitchBufferFull,     // shared buffer exhausted (data)
  kWireDown,             // channel administratively cut
  kWireBlackhole,        // silent port failure (stays in the ECMP set)
  kWireRandom,           // BER-style injected loss
  kWireCorrupt,          // CRC failure at the far end
  kWireCutInFlight,      // killed mid-wire by a drop-in-flight cut
  kHostUnroutable,       // no transport for the flow at the destination
};

inline const char* drop_site_name(DropSite s) {
  switch (s) {
    case DropSite::kSwitchNoRoute: return "switch-no-route";
    case DropSite::kSwitchInjected: return "switch-injected";
    case DropSite::kSwitchCtrlFault: return "switch-ctrl-fault";
    case DropSite::kSwitchHoBufferFull: return "switch-ho-buffer-full";
    case DropSite::kSwitchOverThreshold: return "switch-over-threshold";
    case DropSite::kSwitchBufferFull: return "switch-buffer-full";
    case DropSite::kWireDown: return "wire-down";
    case DropSite::kWireBlackhole: return "wire-blackhole";
    case DropSite::kWireRandom: return "wire-random";
    case DropSite::kWireCorrupt: return "wire-corrupt";
    case DropSite::kWireCutInFlight: return "wire-cut-in-flight";
    case DropSite::kHostUnroutable: return "host-unroutable";
  }
  return "?";
}

class CheckObserver {
 public:
  virtual ~CheckObserver() = default;

  // ---- Host datapath ------------------------------------------------------
  /// A host NIC put a packet on the wire (the single emission point for
  /// data, control and bounced-HO traffic alike; pkt.src names the host).
  virtual void on_host_send(const Packet& pkt) { (void)pkt; }
  /// A packet survived the fabric and reached a host's receive dispatch.
  virtual void on_host_deliver(NodeId host, const Packet& pkt) {
    (void)host;
    (void)pkt;
  }

  // ---- Completions --------------------------------------------------------
  /// A DCP receiver advanced its eMSN past message `msn` (a CQE).
  virtual void on_msg_complete(FlowId flow, std::uint32_t msn) {
    (void)flow;
    (void)msn;
  }
  /// ReceiverTransport::mark_complete was called — every call, including
  /// ones the idempotence guard would swallow, so duplicate CQEs are
  /// visible (stock receivers only call it on fresh progress).
  virtual void on_rx_complete(FlowId flow) { (void)flow; }
  /// A sender's flow transitioned to finished.  Unlike the receiver hook
  /// this fires once per object by construction: duplicate finish() calls
  /// are idiomatic (every completion-confirming ACK may call it).
  virtual void on_tx_complete(FlowId flow) { (void)flow; }

  // ---- Switch datapath ----------------------------------------------------
  /// A switch trimmed a data packet to header-only (§4.2).  `ho` is the
  /// packet *after* trimming.
  virtual void on_trim(NodeId sw, const Packet& ho) {
    (void)sw;
    (void)ho;
  }
  /// A packet died.  `node` is the switch for switch sites, the delivering
  /// host for kHostUnroutable, and kInvalidNode for wire sites.
  virtual void on_drop(DropSite site, NodeId node, const Packet& pkt) {
    (void)site;
    (void)node;
    (void)pkt;
  }

  // ---- Shared-buffer accounting -------------------------------------------
  /// A SharedBuffer::alloc / release whose BufferShadow replay diverged
  /// (the shadow's `last_fail` says how).  `buf` identifies the buffer
  /// instance; `used_after` is its pool occupancy after the call.
  virtual void on_buffer_alloc(const SharedBuffer* buf, std::uint32_t in_port,
                               std::uint8_t cls, std::uint64_t bytes,
                               std::uint64_t used_after) {
    (void)buf;
    (void)in_port;
    (void)cls;
    (void)bytes;
    (void)used_after;
  }
  virtual void on_buffer_release(const SharedBuffer* buf, std::uint32_t in_port,
                                 std::uint8_t cls, std::uint64_t bytes,
                                 std::uint64_t used_after) {
    (void)buf;
    (void)in_port;
    (void)cls;
    (void)bytes;
    (void)used_after;
  }
};

}  // namespace dcp
