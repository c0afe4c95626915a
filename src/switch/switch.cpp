#include "switch/switch.h"

#include <utility>

#include "check/observer.h"
#include "sim/snapshot.h"

namespace dcp {

Switch::Switch(Simulator& sim, Logger& log, NodeId id, const std::string& name,
               SwitchConfig cfg, std::uint64_t seed)
    : Node(sim, log, id, name, NodeKind::kSwitch),
      cfg_(cfg),
      rng_(seed),
      seed_(seed),
      flowlets_(cfg.flowlet_gap),
      buffer_(cfg.buffer_bytes, 0, cfg.pfc) {}

std::uint32_t Switch::add_port(Bandwidth bw, Time propagation) {
  const auto idx = static_cast<std::uint32_t>(ports_.size());
  auto port = std::make_unique<Port>(
      sim_, bw, propagation, std::array<double, kNumQueueClasses>{1.0, cfg_.control_weight});
  port->set_dequeue_hook(
      [](void* sw, const Packet& p) { static_cast<Switch*>(sw)->on_port_dequeue(p); }, this);
  ports_.push_back(std::move(port));
  port_up_.push_back(true);
  pause_sent_.push_back({});
  buffer_.ensure_ports(idx + 1);
  return idx;
}

void Switch::set_link_up(std::uint32_t port, bool up) {
  port_up_[port] = up;
  ports_[port]->channel().set_up(up);  // anything already queued is lost
  any_port_down_ = false;
  for (bool u : port_up_) any_port_down_ = any_port_down_ || !u;
}

bool Switch::pick_egress(const Packet& pkt, std::uint32_t& eport) {
  RouteView candidates = routes_.candidates(pkt.dst);
  if (any_port_down_) {
    // Failure detection has withdrawn the dead links from the candidate
    // set (as a routing protocol would).
    alive_scratch_.clear();
    for (std::uint32_t c : candidates) {
      if (port_up_[c]) alive_scratch_.push_back(c);
    }
    candidates = alive_scratch_;
  }
  if (candidates.empty()) {
    if (CheckObserver* ob = sim_.check_observer()) {
      ob->on_drop(DropSite::kSwitchNoRoute, id(), pkt);
    }
    stats_.no_route++;
    return false;
  }
  eport = select_port(
      cfg_.lb, pkt, candidates,
      [this](std::uint32_t p) {
        return ports_[p]->queued_bytes(static_cast<int>(QueueClass::kData));
      },
      rng_, sim_.now(), &flowlets_);
  return true;
}

bool Switch::apply_injected_loss(Packet& pkt) {
  if (cfg_.trimming && pkt.tag == DcpTag::kData) {
    trim_to_header_only(pkt);
    if (CheckObserver* ob = sim_.check_observer()) ob->on_trim(id(), pkt);
    stats_.injected_trims++;
    return true;  // lives on: egress-enqueued as a header-only packet
  }
  if (CheckObserver* ob = sim_.check_observer()) {
    ob->on_drop(DropSite::kSwitchInjected, id(), pkt);
  }
  stats_.injected_drops++;
  return false;
}

void Switch::trim_to_header_only(Packet& pkt) const {
  pkt.type = PktType::kHeaderOnly;
  pkt.tag = DcpTag::kHeaderOnly;
  pkt.queue_class = QueueClass::kControl;
  pkt.wire_bytes = HeaderSizes::kDcpHeaderOnly;
  pkt.payload_bytes = 0;
}

bool Switch::ecn_mark_decision(std::uint64_t qbytes) {
  if (!cfg_.ecn) return false;
  if (qbytes <= cfg_.ecn_kmin_bytes) return false;
  if (qbytes >= cfg_.ecn_kmax_bytes) return true;
  const double span = static_cast<double>(cfg_.ecn_kmax_bytes - cfg_.ecn_kmin_bytes);
  const double p = cfg_.ecn_pmax * static_cast<double>(qbytes - cfg_.ecn_kmin_bytes) / span;
  return rng_.chance(p);
}

void Switch::egress_enqueue(PacketPtr pkt, std::uint32_t eport, std::uint32_t in_port) {
  Port& port = *ports_[eport];
  pkt->acct_in_port = in_port;

  // Header-only packets always ride the control queue, at any depth; losing
  // one breaks the lossless-control-plane property and is counted.
  if (pkt->queue_class == QueueClass::kControl || pkt->type == PktType::kHeaderOnly) {
    pkt->queue_class = QueueClass::kControl;
    if (cfg_.inject_ho_loss_rate > 0.0 && fault_rng().chance(cfg_.inject_ho_loss_rate)) {
      if (CheckObserver* ob = sim_.check_observer()) {
        ob->on_drop(DropSite::kSwitchCtrlFault, id(), *pkt);
      }
      if (pkt->type == PktType::kHeaderOnly) {
        stats_.dropped_ho++;
        stats_.injected_ho_drops++;
      } else {
        stats_.dropped_ctrl++;
        stats_.injected_ctrl_drops++;
      }
      return;
    }
    if (!buffer_.alloc(in_port, static_cast<std::uint8_t>(QueueClass::kControl),
                       pkt->wire_bytes)) {
      if (CheckObserver* ob = sim_.check_observer()) {
        ob->on_drop(DropSite::kSwitchHoBufferFull, id(), *pkt);
      }
      stats_.dropped_ho++;
      return;
    }
    stats_.ho_seen++;
    stats_.forwarded++;
    port.enqueue(std::move(pkt));
    return;
  }

  const std::uint64_t qbytes = port.queued_bytes(static_cast<int>(QueueClass::kData));
  const std::uint64_t threshold =
      cfg_.trimming ? cfg_.trim_threshold_bytes
                    : (cfg_.pfc.enabled ? UINT64_MAX : cfg_.max_data_queue_bytes);

  if (qbytes >= threshold) {
    if (cfg_.trimming && pkt->tag == DcpTag::kData && pkt->type == PktType::kData) {
      // Paper §4.2: trim the payload, flip the DCP tag to 11, and enqueue
      // the 57-byte remainder into the control queue.
      trim_to_header_only(*pkt);
      if (CheckObserver* ob = sim_.check_observer()) ob->on_trim(id(), *pkt);
      if (!buffer_.alloc(in_port, static_cast<std::uint8_t>(QueueClass::kControl),
                         pkt->wire_bytes)) {
        if (CheckObserver* ob = sim_.check_observer()) {
          ob->on_drop(DropSite::kSwitchHoBufferFull, id(), *pkt);
        }
        stats_.dropped_ho++;
        return;
      }
      stats_.trimmed++;
      stats_.ho_seen++;
      stats_.forwarded++;
      port.enqueue(std::move(pkt));
      return;
    }
    // Non-DCP and DCP-ACK packets are dropped above the threshold (§4.2).
    if (CheckObserver* ob = sim_.check_observer()) {
      ob->on_drop(DropSite::kSwitchOverThreshold, id(), *pkt);
    }
    if (pkt->type == PktType::kData) {
      stats_.dropped_data++;
    } else {
      stats_.dropped_ctrl++;
    }
    if (cfg_.pfc.enabled) stats_.lossless_violations++;
    return;
  }

  if (!buffer_.alloc(in_port, static_cast<std::uint8_t>(QueueClass::kData), pkt->wire_bytes)) {
    if (CheckObserver* ob = sim_.check_observer()) {
      ob->on_drop(DropSite::kSwitchBufferFull, id(), *pkt);
    }
    stats_.dropped_buffer_full++;
    if (pkt->type == PktType::kData) stats_.dropped_data++;
    if (cfg_.pfc.enabled) stats_.lossless_violations++;
    return;
  }

  if (pkt->ecn_capable && ecn_mark_decision(qbytes)) {
    pkt->ecn_ce = true;
    stats_.ecn_marked++;
  }

  stats_.forwarded++;
  port.enqueue(std::move(pkt));

  // PFC: crossing Xoff on the ingress accounting pauses the upstream.
  const auto cls = static_cast<std::uint8_t>(QueueClass::kData);
  if (buffer_.should_pause(in_port, cls) && !pause_sent_[in_port][cls]) {
    pause_sent_[in_port][cls] = true;
    stats_.pauses_sent++;
    Packet pause;
    pause.type = PktType::kPfcPause;
    pause.pause_class = cls;
    pause.wire_bytes = HeaderSizes::kPfcFrame;
    ports_[in_port]->send_oob(std::move(pause));
  }
}

void Switch::on_port_dequeue(const Packet& pkt) {
  const auto cls = static_cast<std::uint8_t>(pkt.queue_class);
  const std::uint32_t in_port = pkt.acct_in_port;
  if (in_port == UINT32_MAX) return;  // not buffer-accounted (should not happen)
  buffer_.release(in_port, cls, pkt.wire_bytes);
  if (pause_sent_[in_port][cls] && buffer_.should_resume(in_port, cls)) {
    pause_sent_[in_port][cls] = false;
    stats_.resumes_sent++;
    Packet resume;
    resume.type = PktType::kPfcResume;
    resume.pause_class = cls;
    resume.wire_bytes = HeaderSizes::kPfcFrame;
    ports_[in_port]->send_oob(std::move(resume));
  }
}

void Switch::checkpoint(StateIO& io) {
  io.label(0x51117C4u);
  io.pod(cfg_);
  rng_.checkpoint(io);
  // Until its first draw the fault stream is its fresh seed's, so seeding
  // it here saves the same bytes an eagerly seeded stream would.
  fault_rng().checkpoint(io);
  io.pod(any_port_down_);
  // vector<bool> has no contiguous storage; element-wise bytes.
  std::uint64_t nup = port_up_.size();
  io.pod(nup);
  if (!io.saving() && nup != port_up_.size()) {
    io.fail("switch port count mismatch");
    return;
  }
  for (std::size_t i = 0; i < port_up_.size(); ++i) {
    std::uint8_t b = port_up_[i] ? 1 : 0;
    io.pod(b);
    if (!io.saving()) port_up_[i] = b != 0;
  }
  flowlets_.checkpoint(io);
  buffer_.checkpoint(io);
  io.vec(pause_sent_);
  io.pod(stats_);
  io.fixed(ports_, [](StateIO& s, std::unique_ptr<Port>& p) { p->checkpoint(s); });
}

}  // namespace dcp
