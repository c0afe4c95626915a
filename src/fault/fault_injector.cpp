#include "fault/fault_injector.h"

#include <algorithm>
#include <utility>

#include "sim/snapshot.h"

namespace dcp {

FaultInjector::FaultInjector(Network& net, FaultPlan plan, std::uint64_t seed)
    : net_(net), plan_(std::move(plan)), rng_(Rng::substream(seed, /*tag=*/0xfa017)) {
  arm();
}

FaultInjector::~FaultInjector() {
  for (EventId ev : events_) net_.sim().cancel(ev);
  for (auto& [ch, state] : hooked_) ch->set_fault(nullptr);
}

void FaultInjector::arm() {
  for (std::size_t i = 0; i < plan_.actions.size(); ++i) {
    const FaultAction& a = plan_.actions[i];
    if (a.is_noop()) continue;  // arms nothing: zero-intensity plans are free
    events_.push_back(net_.sim().schedule_at(a.at, [this, i] { apply(i); }));
    if (a.end() != kTimeInfinity) {
      events_.push_back(net_.sim().schedule_at(a.end(), [this, i] { revert(i); }));
    }
  }
}

std::vector<Switch*> FaultInjector::target_switches(const FaultAction& a) const {
  std::vector<Switch*> out;
  const auto& sws = net_.switches();
  if (a.sw == FaultAction::kAll) {
    for (const auto& s : sws) out.push_back(s.get());
  } else if (a.sw < sws.size()) {
    out.push_back(sws[a.sw].get());
  }
  return out;
}

std::vector<std::pair<Switch*, std::uint32_t>> FaultInjector::target_ports(
    const FaultAction& a) const {
  std::vector<std::pair<Switch*, std::uint32_t>> out;
  for (Switch* s : target_switches(a)) {
    if (a.port == FaultAction::kAll) {
      for (std::uint32_t p = 0; p < s->num_ports(); ++p) out.emplace_back(s, p);
    } else if (a.port < s->num_ports()) {
      out.emplace_back(s, a.port);
    }
  }
  return out;
}

ChannelFault* FaultInjector::hook(Channel& ch) {
  auto it = hooked_.find(&ch);
  if (it != hooked_.end()) return it->second;
  states_.emplace_back();
  ChannelFault* f = &states_.back();
  f->rng = &rng_;
  ch.set_fault(f);
  hooked_[&ch] = f;
  return f;
}

void FaultInjector::flip_link(Switch* sw, std::uint32_t port, bool up, bool drop_in_flight) {
  Channel& fwd = sw->port(port).channel();
  if (!up) {
    fwd.set_drop_in_flight_on_cut(drop_in_flight);
    note_cut_channel(&fwd);
    ctr_.link_cuts++;
  } else {
    ctr_.link_restores++;
  }
  sw->set_link_up(port, up);

  // A flap is a full-duplex event: find the reverse channel and cut or
  // restore it too (withdrawing routes on a peer switch, silencing a peer
  // host's NIC).
  Node* peer = fwd.peer();
  for (const auto& s : net_.switches()) {
    if (s.get() == peer) {
      Channel& rev = s->port(fwd.peer_port()).channel();
      if (!up) {
        rev.set_drop_in_flight_on_cut(drop_in_flight);
        note_cut_channel(&rev);
      }
      s->set_link_up(fwd.peer_port(), up);
      return;
    }
  }
  for (const auto& h : net_.hosts()) {
    if (h.get() == peer) {
      Channel& rev = h->nic().channel();
      if (!up) {
        rev.set_drop_in_flight_on_cut(drop_in_flight);
        note_cut_channel(&rev);
      }
      rev.set_up(up);
      return;
    }
  }
}

void FaultInjector::note_cut_channel(Channel* ch) {
  if (std::find(cut_channels_.begin(), cut_channels_.end(), ch) == cut_channels_.end()) {
    cut_channels_.push_back(ch);
  }
}

void FaultInjector::apply(std::size_t i) {
  const FaultAction& a = plan_.actions[i];
  switch (a.kind) {
    case FaultKind::kLinkFlap:
      for (auto [sw, p] : target_ports(a)) flip_link(sw, p, /*up=*/false, a.drop_in_flight);
      break;
    case FaultKind::kDrop:
      for (auto [sw, p] : target_ports(a)) hook(sw->port(p).channel())->drop_rate += a.rate;
      break;
    case FaultKind::kCorrupt:
      for (auto [sw, p] : target_ports(a)) hook(sw->port(p).channel())->corrupt_rate += a.rate;
      break;
    case FaultKind::kHoLoss:
      for (Switch* sw : target_switches(a)) sw->config().inject_ho_loss_rate += a.rate;
      break;
    case FaultKind::kBufferShrink: {
      auto& saved = saved_capacity_[i];
      for (Switch* sw : target_switches(a)) {
        const std::uint64_t cap = sw->buffer().capacity();
        saved.emplace_back(sw, cap);
        sw->buffer().set_capacity(static_cast<std::uint64_t>(static_cast<double>(cap) * a.frac));
      }
      break;
    }
    case FaultKind::kBlackhole:
      for (auto [sw, p] : target_ports(a)) hook(sw->port(p).channel())->blackhole_refs++;
      break;
  }
  if (on_fault_start) on_fault_start(i, a, net_.sim().now());
}

void FaultInjector::revert(std::size_t i) {
  const FaultAction& a = plan_.actions[i];
  switch (a.kind) {
    case FaultKind::kLinkFlap:
      for (auto [sw, p] : target_ports(a)) flip_link(sw, p, /*up=*/true, a.drop_in_flight);
      break;
    case FaultKind::kDrop:
      for (auto [sw, p] : target_ports(a)) hook(sw->port(p).channel())->drop_rate -= a.rate;
      break;
    case FaultKind::kCorrupt:
      for (auto [sw, p] : target_ports(a)) hook(sw->port(p).channel())->corrupt_rate -= a.rate;
      break;
    case FaultKind::kHoLoss:
      for (Switch* sw : target_switches(a)) sw->config().inject_ho_loss_rate -= a.rate;
      break;
    case FaultKind::kBufferShrink:
      for (auto [sw, cap] : saved_capacity_[i]) sw->buffer().set_capacity(cap);
      saved_capacity_.erase(i);
      break;
    case FaultKind::kBlackhole:
      for (auto [sw, p] : target_ports(a)) hook(sw->port(p).channel())->blackhole_refs--;
      break;
  }
  if (on_fault_end) on_fault_end(i, a, net_.sim().now());
}

FaultInjector::Counters FaultInjector::counters() const {
  Counters c = ctr_;
  for (const ChannelFault& f : states_) {
    c.dropped += f.dropped;
    c.corrupted += f.corrupted;
    c.blackholed += f.blackholed;
  }
  for (const Channel* ch : cut_channels_) c.in_flight_dropped += ch->in_flight_dropped();
  return c;
}

void FaultInjector::replay_to(Time t) {
  struct Rep {
    Time at;
    std::size_t ev;
    std::size_t action;
    bool is_start;
  };
  std::vector<Rep> reps;
  std::size_t ev = 0;
  for (std::size_t i = 0; i < plan_.actions.size(); ++i) {
    const FaultAction& a = plan_.actions[i];
    if (a.is_noop()) continue;
    if (a.at < t) reps.push_back({a.at, ev, i, true});
    ++ev;
    if (a.end() != kTimeInfinity) {
      if (a.end() < t) reps.push_back({a.end(), ev, i, false});
      ++ev;
    }
  }
  // Same-time events fired in arm order (arming allocates ascending
  // sequence numbers), which a stable sort by time preserves.
  std::stable_sort(reps.begin(), reps.end(),
                   [](const Rep& x, const Rep& y) { return x.at < y.at; });
  auto saved_start = std::move(on_fault_start);
  auto saved_end = std::move(on_fault_end);
  on_fault_start = nullptr;
  on_fault_end = nullptr;
  for (const Rep& r : reps) {
    net_.sim().cancel(events_[r.ev]);
    if (r.is_start) {
      apply(r.action);
    } else {
      revert(r.action);
    }
  }
  on_fault_start = std::move(saved_start);
  on_fault_end = std::move(saved_end);
}

void FaultInjector::checkpoint(StateIO& io) {
  io.label(0xFA1737u);
  rng_.checkpoint(io);
  io.pod(ctr_);
  std::uint64_t ns = states_.size();
  io.pod(ns);
  if (!io.saving() && ns != states_.size()) {
    return io.fail("fault hook count mismatch (replay_to not run?)");
  }
  for (ChannelFault& f : states_) {
    io.pod(f.drop_rate);
    io.pod(f.corrupt_rate);
    io.pod(f.blackhole_refs);
    io.pod(f.dropped);
    io.pod(f.corrupted);
    io.pod(f.blackholed);
  }
}

}  // namespace dcp
