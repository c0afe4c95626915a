#pragma once
// The simulated datacenter switch.
//
// Output-queued, shared-buffer switch with two egress queue classes per
// port (data + control).  Implements, per configuration:
//   * DCP-Switch (paper §4.2 / §5): packet trimming above a data-queue
//     threshold, a control queue for header-only packets, and DWRR
//     scheduling weighted so the control plane is lossless;
//   * PFC: ingress-accounted PAUSE/RESUME toward upstream neighbours;
//   * ECN marking (RED-style on the egress data queue) for DCQCN;
//   * ECMP / in-network adaptive routing / source-routed multipath;
//   * Random loss injection (testbed experiments force loss this way).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/node.h"
#include "net/port.h"
#include "sim/rng.h"
#include "switch/buffer.h"
#include "switch/routing.h"
#include "switch/scheduler.h"

namespace dcp {

struct SwitchConfig {
  std::uint64_t buffer_bytes = 32ull * 1024 * 1024;
  PfcConfig pfc;

  // DCP-Switch mode.  The default trim threshold matches the lossy-mode
  // tail-drop depth so DCP vs RNIC-SR comparisons isolate *recovery*
  // behaviour; shallow thresholds (e.g. 100 KB) stress the control plane
  // harder (Table 5) and are set explicitly by those experiments.
  bool trimming = false;
  std::uint64_t trim_threshold_bytes = 1024 * 1024;  // per egress data queue
  double control_weight = 4.0;                      // DWRR weight control:data = w:1

  // Lossy mode without trimming: tail-drop above this egress depth.
  std::uint64_t max_data_queue_bytes = 1024 * 1024;

  // ECN (DCQCN) marking on the egress data queue.
  bool ecn = false;
  std::uint64_t ecn_kmin_bytes = 100 * 1024;
  std::uint64_t ecn_kmax_bytes = 400 * 1024;
  double ecn_pmax = 0.2;

  // Random loss injection on data packets (0 disables).  DCP data packets
  // are trimmed instead of dropped, mirroring the paper's P4 manipulation.
  double inject_loss_rate = 0.0;

  // Control-queue loss injection (0 disables): every packet entering the
  // control queue — header-only packets above all — is dropped with this
  // probability, directly violating the lossless-control-plane assumption
  // (§4.5's failure regime).  Draws come from a dedicated fault RNG stream,
  // so a zero rate leaves the switch's base randomness untouched.
  double inject_ho_loss_rate = 0.0;

  LbPolicy lb = LbPolicy::kEcmp;
  Time flowlet_gap = microseconds(50);  // for LbPolicy::kFlowlet
};

class Switch final : public Node {
 public:
  struct Stats {
    // The per-packet counters (bumped on every successful forward) lead
    // the struct so they share one cache line; rarer outcomes follow.
    std::uint64_t forwarded = 0;
    std::uint64_t ho_seen = 0;          // HO packets enqueued OK
    std::uint64_t trimmed = 0;          // data packets converted to HO
    std::uint64_t ecn_marked = 0;
    std::uint64_t injected_trims = 0;   // trims caused by loss injection
    std::uint64_t injected_drops = 0;
    std::uint64_t dropped_data = 0;     // data packets dropped (lossy mode)
    std::uint64_t dropped_ho = 0;       // HO packets lost (control plane!)
    std::uint64_t dropped_ctrl = 0;     // ACK/CNP/non-DCP dropped over threshold
    std::uint64_t dropped_buffer_full = 0;
    std::uint64_t injected_ho_drops = 0;    // HO losses forced by fault injection
    std::uint64_t injected_ctrl_drops = 0;  // other control-queue fault losses
    std::uint64_t pauses_sent = 0;
    std::uint64_t resumes_sent = 0;
    std::uint64_t lossless_violations = 0;  // drops while PFC enabled
    std::uint64_t no_route = 0;
  };

  Switch(Simulator& sim, Logger& log, NodeId id, const std::string& name, SwitchConfig cfg,
         std::uint64_t seed);

  /// Adds an egress port of the given speed; returns its index.  The peer
  /// must be connected via `connect` before traffic flows.
  std::uint32_t add_port(Bandwidth bw, Time propagation);
  void connect(std::uint32_t port, Node* peer, std::uint32_t peer_port) {
    ports_[port]->connect(peer, peer_port);
  }

  RouteTable& routes() { return routes_; }
  const RouteTable& routes() const { return routes_; }
  Port& port(std::uint32_t i) { return *ports_[i]; }
  std::uint32_t num_ports() const { return static_cast<std::uint32_t>(ports_.size()); }
  const Stats& stats() const { return stats_; }
  const SharedBuffer& buffer() const { return buffer_; }
  SharedBuffer& buffer() { return buffer_; }  // fault injection resizes capacity
  SwitchConfig& config() { return cfg_; }

  /// Administratively fails/restores a link: a down port is excluded from
  /// load-balancing candidates (models routing withdrawal after failure
  /// detection) and silently discards anything already queued toward it.
  void set_link_up(std::uint32_t port, bool up);
  bool link_up(std::uint32_t port) const { return port_up_[port]; }

  /// Checkpoint hook (sim/snapshot.h): runtime config (fault rates), RNG
  /// streams, link state, flowlets, shared buffer, PFC bookkeeping, stats
  /// and every port.  Routes are not serialized: they are setup-built.
  void checkpoint(StateIO& io);

  using Node::receive;
  /// Virtual entry for callers holding a Node* (tests, tools): same body
  /// as the statically-dispatched entry below.
  void receive(PacketPtr pkt, std::uint32_t in_port) override { receive_fast(std::move(pkt), in_port); }

  /// Statically-dispatched delivery entry (Channel::arrive casts to the
  /// final type and calls this non-virtually).  Header-visible so
  /// per-packet classification inlines into the channel's arrival; the
  /// rare outcomes — PFC frame, no route, injected loss — take
  /// out-of-line helpers.
  void receive_fast(PacketPtr pkt, std::uint32_t in_port) {
    const PktType ty = pkt->type;
    if (ty == PktType::kPfcPause || ty == PktType::kPfcResume) {
      // PAUSE/RESUME from the downstream neighbour applies to our egress
      // port facing it, i.e. the arrival port (ports are full-duplex).
      ports_[in_port]->set_paused(pkt->pause_class, ty == PktType::kPfcPause);
      return;
    }
    std::uint32_t eport = 0;
    if (!pick_egress(*pkt, eport)) return;  // no route: dropped
    // Forced loss (testbed experiments): the P4 switch trims DCP data
    // packets and plainly drops everything else.
    if (cfg_.inject_loss_rate > 0.0 && ty == PktType::kData &&
        rng_.chance(cfg_.inject_loss_rate) && !apply_injected_loss(*pkt)) {
      return;  // dropped (a trim falls through as a header-only packet)
    }
    egress_enqueue(std::move(pkt), eport, in_port);
  }

 private:
  /// Candidate walk (minus withdrawn links) and LB port selection.
  /// Returns false when the packet has no route (accounted + dropped).
  bool pick_egress(const Packet& pkt, std::uint32_t& eport);
  /// An injected-loss draw fired: trims DCP data in place (returns true —
  /// the packet lives on as header-only) or accounts a drop (false).
  bool apply_injected_loss(Packet& pkt);
  void egress_enqueue(PacketPtr pkt, std::uint32_t eport, std::uint32_t in_port);
  void on_port_dequeue(const Packet& pkt);
  bool ecn_mark_decision(std::uint64_t qbytes);
  void trim_to_header_only(Packet& pkt) const;

  SwitchConfig cfg_;
  Rng rng_;
  Rng fault_rng_;  // dedicated stream: drawn only while a fault rate is armed
  std::vector<std::unique_ptr<Port>> ports_;
  std::vector<bool> port_up_;
  bool any_port_down_ = false;
  FlowletTable flowlets_;
  RouteTable routes_;
  std::vector<std::uint32_t> alive_scratch_;  // reused live-candidate filter
  SharedBuffer buffer_;
  // pause_sent_[port][class]: we have PAUSEd that upstream and not yet RESUMEd.
  std::vector<std::array<bool, kNumQueueClasses>> pause_sent_;
  Stats stats_;
};

}  // namespace dcp
