#include "topo/network.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "check/observer.h"
#include "sim/snapshot.h"

namespace dcp {

Host* Network::add_host(const std::string& name, Bandwidth nic_bw, Time link_prop) {
  auto h = std::make_unique<Host>(build_sim(), log_, next_node_++, name, nic_bw, link_prop);
  Host* raw = h.get();
  shard_of_node_.push_back(build_shard_);  // node ids are dense and ordered
  host_by_id_[raw->id()] = raw;
  wire_host_hooks(raw);
  hosts_.push_back(std::move(h));
  return raw;
}

Switch* Network::add_switch(const std::string& name, const SwitchConfig& cfg) {
  const NodeId id = next_node_++;
  auto s = std::make_unique<Switch>(build_sim(), log_, id, name, cfg, /*seed=*/0x5eedULL + id);
  Switch* raw = s.get();
  shard_of_node_.push_back(build_shard_);
  switches_.push_back(std::move(s));
  return raw;
}

std::uint32_t Network::attach(Host* h, Switch* s, Bandwidth bw, Time prop) {
  const std::uint32_t sp = s->add_port(bw, prop);
  s->connect(sp, h, 0);
  h->connect(s, sp);
  s->routes().add_route(h->id(), sp);
  return sp;
}

std::pair<std::uint32_t, std::uint32_t> Network::link(Switch* a, Switch* b, Bandwidth bw,
                                                      Time prop) {
  const std::uint32_t pa = a->add_port(bw, prop);
  const std::uint32_t pb = b->add_port(bw, prop);
  a->connect(pa, b, pb);
  b->connect(pb, a, pa);
  return {pa, pb};
}

void Network::direct_link(Host* a, Host* b) {
  a->connect(b, 0);
  b->connect(a, 0);
}

void Network::wire_host_hooks(Host* h) {
  // Each end records its own stats on h's shard, at its own completion
  // (both hooks fire once per transport).  Only the shared effects, the
  // completion count and the listeners, wait for a sharded run's barrier.
  h->on_sender_done = [this, h](FlowId id) {
    FlowRecord& rec = record(id);
    rec.tx_done = h->sim().now();
    rec.sender = h->sender(id)->stats();
    end_done(*h, id, /*tx=*/true);
  };
  h->on_receiver_done = [this, h](FlowId id) {
    FlowRecord& rec = record(id);
    rec.rx_done = h->sim().now();
    rec.receiver = h->receiver(id)->stats();
    end_done(*h, id, /*tx=*/false);
  };
}

void Network::end_done(Host& h, FlowId id, bool tx) {
  if (!shard_run_active_) return apply_end_done(id, tx);
  Simulator& hs = h.sim();
  PendingEffects& pe = pending_[static_cast<std::size_t>(shard_of(h.id()))];
  pe.done.push_back(PendingDone{id, hs.current_event_time(), hs.current_event_seq(pe), tx});
}

void Network::apply_end_done(FlowId id, bool tx) {
  if (tx) ++completed_;
  // A listener may start follow-up flows (collectives), reallocating
  // records_ — re-fetch the record per call rather than hold a reference.
  for (auto& fn : tx ? tx_listeners_ : rx_listeners_) fn(record(id));
}

FlowId Network::start_flow(FlowSpec spec) {
  assert(factory_ && "set_factory() before start_flow()");
  spec.id = next_flow_++;
  spec.sport = next_sport_++;
  if (next_sport_ < 10000) next_sport_ = 10000;

  Host* src = host_by_id_.at(spec.src);
  Host* dst = host_by_id_.at(spec.dst);
  if (src == dst) {
    // Loopback flows are not modeled; refused in every build.
    std::fprintf(stderr, "Network::start_flow: loopback flow on host %u refused\n", spec.src);
    std::abort();
  }

  FlowRecord rec;
  rec.spec = spec;
  index_[spec.id] = records_.size();
  records_.push_back(rec);

  // Transports must live on their host's shard: their timers go into that
  // shard's queue and their clock reads must see that shard's now().
  dst->add_receiver(factory_->make_receiver(dst->sim(), *dst, spec, tcfg_));
  src->add_sender(factory_->make_sender(src->sim(), *src, spec, tcfg_));

  SenderTransport* snd = src->sender(spec.id);
  // The start runs on the source host's shard (== sim_ in serial builds).
  // The id is kept so a snapshot restore can cancel starts the saved run
  // already executed (cancel_started_flows).
  start_ev_.push_back(src->sim().schedule_at(spec.start_time, [snd] { snd->start(); }));
  return spec.id;
}

Host* Network::host(NodeId id) {
  auto it = host_by_id_.find(id);
  return it == host_by_id_.end() ? nullptr : it->second;
}

Time Network::ideal_fct(NodeId src, NodeId dst, std::uint64_t bytes) const {
  PathInfo pi;
  if (path_info) pi = path_info(src, dst);
  const std::uint64_t mtu = kMtuPayload;
  const std::uint64_t pkts = bytes == 0 ? 1 : (bytes + mtu - 1) / mtu;
  const std::uint64_t hdr = HeaderSizes::kDcpHeaderOnly + HeaderSizes::kReth;
  const std::uint64_t wire = bytes + pkts * hdr;
  const std::uint64_t first_pkt = std::min<std::uint64_t>(wire, mtu + hdr);
  // First packet pipelines through `hops` store-and-forward stages, the
  // rest stream behind it at the bottleneck, then the final ACK returns.
  Time t = pi.one_way_delay;
  t += static_cast<Time>(pi.hops) * pi.bottleneck.serialize(static_cast<std::int64_t>(first_pkt));
  t += pi.bottleneck.serialize(static_cast<std::int64_t>(wire - first_pkt));
  t += pi.one_way_delay + pi.bottleneck.serialize(HeaderSizes::kDcpAck);
  return t;
}

void Network::set_check_observer_all(CheckObserver* ob) {
  if (shards_ != nullptr) {
    for (int i = 0; i < shards_->size(); ++i) shards_->sim(i).set_check_observer(ob);
  } else {
    sim_.set_check_observer(ob);
  }
}

void Network::finalize_shards() {
  if (shards_finalized_) return;
  shards_finalized_ = true;
  // Sized once, before any window lists one of them as a stamp holder.
  pending_.resize(static_cast<std::size_t>(shards_->size()));

  // A channel whose endpoints live on different shards becomes a mailbox
  // edge (and contributes to the lookahead).  Every stamp holder, cut edge
  // or not, lists itself at its first stamp in a window.
  Time min_cut = kTimeInfinity;
  auto wire = [&](Channel& ch, int src_shard) {
    Node* peer = ch.peer();
    if (peer == nullptr) return;
    const int dst_shard = shard_of(peer->id());
    if (dst_shard == src_shard) return;
    ch.make_cut_edge(shards_->sim(dst_shard));
    if (ch.propagation() < min_cut) min_cut = ch.propagation();
  };
  for (auto& h : hosts_) wire(h->nic().channel(), shard_of(h->id()));
  for (auto& s : switches_) {
    const int ss = shard_of(s->id());
    for (std::uint32_t p = 0; p < s->num_ports(); ++p) wire(s->port(p).channel(), ss);
  }
  // Conservative sync needs strictly positive lookahead; every supported
  // cut (leaf-spine and testbed cross links) has >= 1us propagation.  A
  // partition with no cut at all runs plain slice-bounded windows.
  assert(min_cut == kTimeInfinity || min_cut > 0);
  shards_->set_lookahead(min_cut == kTimeInfinity ? milliseconds(1) : min_cut);
  shard_run_active_ = true;
}

bool Network::PendingEffects::commit_stamps(const SeqRemap& remap) {
  for (PendingDone& d : done) d.seq = remap(d.seq);
  return false;
}

void Network::commit_window_effects() {
  // Gather the per-shard lists and apply them in committed (t, seq) order
  // — the order the serial run would have applied them in (a shard's list
  // is in execution order, so the stable sort keeps one event's effects
  // in order).  Listener order matters because listeners mutate ordered
  // state (flow-id assignment in collectives, completion counters).
  std::vector<PendingDone> done;
  for (PendingEffects& pe : pending_) {
    done.insert(done.end(), pe.done.begin(), pe.done.end());
    pe.done.clear();
  }
  std::stable_sort(done.begin(), done.end(), [](const PendingDone& a, const PendingDone& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  });
  for (const PendingDone& d : done) apply_end_done(d.id, d.tx);
}

bool Network::run_windows(Time bound) {
  for (;;) {
    const Time tn = shards_->next_time();
    if (tn == kTimeInfinity) return true;
    if (tn > bound) return false;
    shards_->run_window(bound);
    commit_window_effects();
  }
}

Switch::Stats Network::total_switch_stats() const {
  Switch::Stats total;
  for (const auto& s : switches_) {
    const auto& st = s->stats();
    total.forwarded += st.forwarded;
    total.trimmed += st.trimmed;
    total.injected_trims += st.injected_trims;
    total.dropped_data += st.dropped_data;
    total.dropped_ho += st.dropped_ho;
    total.ho_seen += st.ho_seen;
    total.dropped_ctrl += st.dropped_ctrl;
    total.dropped_buffer_full += st.dropped_buffer_full;
    total.injected_drops += st.injected_drops;
    total.injected_ho_drops += st.injected_ho_drops;
    total.injected_ctrl_drops += st.injected_ctrl_drops;
    total.ecn_marked += st.ecn_marked;
    total.pauses_sent += st.pauses_sent;
    total.resumes_sent += st.resumes_sent;
    total.lossless_violations += st.lossless_violations;
    total.no_route += st.no_route;
  }
  return total;
}

Time Network::run_to_paused(Time t, Time max_time) {
  const bool sharded = shards_ != nullptr && shards_->sharded();
  if (sharded) finalize_shards();
  // Slices align to an absolute grid (not now + slice) and completion is
  // tested only AT grid boundaries, so a snapshot-resumed run stops where
  // the uninterrupted one does, no matter where in a slice it resumed.
  const Time slice = std::max<Time>(microseconds(100), max_time / 10000);
  while (sim_.now() < max_time) {
    if (sim_.now() % slice == 0 && all_flows_done()) break;
    const Time next = std::min(max_time, (sim_.now() / slice + 1) * slice);
    if (next >= t) {
      if (sharded) {
        run_windows(t - 1);
      } else {
        sim_.run(t - 1);
      }
      return t;
    }
    if (!sharded) {
      sim_.run(next);
      if (sim_.idle()) break;
    } else if (run_windows(next)) {
      // An idle break leaves the clock at the last executed event; across
      // shards that is the latest shard clock.
      sim_.sync_now(shards_->max_now());
      break;
    } else {
      shards_->sync_now(next);
    }
  }
  // The run ended: every end that never completed records its live stats.
  for (FlowRecord& rec : records_) {
    const FlowId id = rec.spec.id;
    if (rec.rx_done < 0) rec.receiver = host_by_id_.at(rec.spec.dst)->receiver(id)->stats();
    if (rec.tx_done < 0) rec.sender = host_by_id_.at(rec.spec.src)->sender(id)->stats();
  }
  return sim_.now() + 1;
}

void Network::prepare_shard_run() {
  if (shards_ != nullptr && shards_->sharded()) finalize_shards();
}

void Network::cancel_started_flows(Time t) {
  for (std::size_t i = 0; i < start_ev_.size() && i < records_.size(); ++i) {
    const FlowSpec& spec = records_[i].spec;
    if (spec.start_time < t) {
      host_by_id_.at(spec.src)->sim().cancel(start_ev_[i]);
    }
  }
}

void Network::checkpoint(StateIO& io) {
  io.label(0x4E7733u);
  for (const PendingEffects& pe : pending_) {
    if (!pe.done.empty()) return io.fail("snapshot off-barrier: pending flow completions");
  }
  io.pod(completed_);
  io.pod(next_sport_);
  // Field-wise, not s.pod(r): FlowSpec has interior padding whose bytes
  // are indeterminate, and snapshot images must be byte-deterministic.
  io.fixed(records_, [](StateIO& s, FlowRecord& r) {
    s.pod(r.spec.id);
    s.pod(r.spec.src);
    s.pod(r.spec.dst);
    s.pod(r.spec.bytes);
    s.pod(r.spec.start_time);
    s.pod(r.spec.op);
    s.pod(r.spec.msg_bytes);
    s.pod(r.spec.sport);
    s.pod(r.spec.group);
    s.pod(r.spec.background);
    s.pod(r.rx_done);
    s.pod(r.tx_done);
    s.pod(r.sender);
    s.pod(r.receiver);
  });
  io.fixed(hosts_, [](StateIO& s, std::unique_ptr<Host>& h) { h->checkpoint(s); });
  io.fixed(switches_, [](StateIO& s, std::unique_ptr<Switch>& sw) { sw->checkpoint(s); });
}

}  // namespace dcp
