#include "check/invariant_oracle.h"

#include "sim/snapshot.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <mutex>

#include "core/dcp_transport.h"

namespace dcp {

namespace {

std::string fmt(const char* f, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof(buf), f, ap);
  va_end(ap);
  return buf;
}

const char* pkt_type_name(PktType t) {
  switch (t) {
    case PktType::kData: return "data";
    case PktType::kAck: return "ack";
    case PktType::kSack: return "sack";
    case PktType::kNack: return "nack";
    case PktType::kCnp: return "cnp";
    case PktType::kHeaderOnly: return "ho";
    case PktType::kPfcPause: return "pause";
    case PktType::kPfcResume: return "resume";
  }
  return "?";
}

}  // namespace

InvariantOracle::InvariantOracle(Network& net) : net_(net), sim_(net.sim()) {
  prev_ = sim_.check_observer();
  net_.set_check_observer_all(this);
  mt_ = net_.shard_count() > 1;
  for (const auto& sw : net_.switches()) watch_buffer(sw->buffer());
}

InvariantOracle::~InvariantOracle() {
  net_.set_check_observer_all(prev_);
  for (SharedBuffer* b : watched_) b->set_check_observer(nullptr, nullptr);
}

void InvariantOracle::watch_buffer(SharedBuffer& buf) {
  // Installing the shadow moves the clean-path replay inline into
  // alloc/release; the virtual hooks below then only see divergences.
  buf.set_check_observer(this, &buf_state(&buf));
  watched_.push_back(&buf);
}

InvariantOracle::FlowState& InvariantOracle::flow(FlowId id) {
  if (id >= kDenseFlowLimit) return sparse_flows_[id];
  if (id >= flows_.size()) flows_.resize(id + 1);
  return flows_[id];
}

BufferShadow& InvariantOracle::buf_state(const SharedBuffer* buf) {
  for (auto& [key, state] : buffers_) {
    if (key == buf) return *state;
  }
  buffers_.emplace_back(buf, std::make_unique<BufferShadow>());
  return *buffers_.back().second;
}

Time InvariantOracle::stamp() const {
  // Hooks fire on the executing shard's thread; its own clock is the only
  // one safe (and meaningful) to read there.  Outside any run loop
  // (finalize, setup) fall back to the primary simulator.
  const Simulator* s = Simulator::active();
  return s != nullptr ? s->now() : sim_.now();
}

void InvariantOracle::violate(const char* invariant, std::string detail) {
  frozen_ = true;  // preserve the trace ring as it was at first failure
  if (violations_.size() >= kMaxViolations) {
    suppressed_++;
    return;
  }
  violations_.push_back({invariant, std::move(detail), stamp()});
}

void InvariantOracle::record(std::uint8_t kind, NodeId node, const Packet& pkt,
                             std::uint8_t site) {
  if (frozen_) return;
  TraceEv& e = ring_[ring_next_];
  e.at = stamp();
  e.kind = kind;
  e.site = site;
  e.type = pkt.type;
  e.node = node;
  e.flow = pkt.flow;
  e.psn = pkt.psn;
  e.msn = pkt.msn;
  e.retry = pkt.retry_no;
  ring_next_ = (ring_next_ + 1) & (kTraceRingEvents - 1);
  if (ring_next_ == 0) ring_wrapped_ = true;
}

// ---------------------------------------------------------------------------
// Per-event hooks
// ---------------------------------------------------------------------------

namespace {
// Lock only when the oracle is armed on a sharded group.
struct MaybeLock {
  MaybeLock(std::mutex& m, bool on) : m_(m), on_(on) {
    if (on_) m_.lock();
  }
  ~MaybeLock() {
    if (on_) m_.unlock();
  }
  MaybeLock(const MaybeLock&) = delete;
  MaybeLock& operator=(const MaybeLock&) = delete;

 private:
  std::mutex& m_;
  bool on_;
};
}  // namespace

void InvariantOracle::on_host_send(const Packet& pkt) {
  MaybeLock lk(mu_, mt_);
  record('S', pkt.src, pkt);
  switch (pkt.type) {
    case PktType::kData: {
      FlowState& f = flow(pkt.flow);
      if (!f.endpoints_known) {
        f.src = pkt.src;
        f.dst = pkt.dst;
        f.endpoints_known = true;
      }
      if (!pkt.is_retransmit) {
        if (static_cast<std::int64_t>(pkt.psn) <= f.max_new_psn) {
          violate("psn-monotonic",
                  fmt("flow %" PRIu64 ": new data psn %u not above high-water %lld", pkt.flow,
                      pkt.psn, static_cast<long long>(f.max_new_psn)));
        } else {
          f.max_new_psn = pkt.psn;
        }
      } else if (static_cast<std::int64_t>(pkt.psn) > f.max_new_psn) {
        violate("psn-monotonic", fmt("flow %" PRIu64 ": retransmission of never-sent psn %u",
                                     pkt.flow, pkt.psn));
      }
      if (pkt.tag == DcpTag::kData) {
        if (pkt.msn >= f.retry_seen.size()) f.retry_seen.resize(pkt.msn + 1, 0);
        std::uint8_t& seen = f.retry_seen[pkt.msn];
        if (pkt.retry_no < seen) {
          violate("retry-escalation",
                  fmt("flow %" PRIu64 " msn %u: sRetryNo regressed %u -> %u", pkt.flow, pkt.msn,
                      seen, pkt.retry_no));
        } else {
          seen = pkt.retry_no;
        }
      }
      return;
    }
    case PktType::kAck: {
      if (pkt.tag != DcpTag::kAck) return;  // only DCP ACKs carry eMSN/rcnt
      FlowState& f = flow(pkt.flow);
      if (static_cast<std::int64_t>(pkt.emsn) < f.max_ack_emsn) {
        violate("ack-monotonic", fmt("flow %" PRIu64 ": eMSN regressed %lld -> %u", pkt.flow,
                                     static_cast<long long>(f.max_ack_emsn), pkt.emsn));
      } else {
        f.max_ack_emsn = pkt.emsn;
      }
      if (static_cast<std::int64_t>(pkt.ack_psn) < f.max_ack_cnt) {
        violate("ack-monotonic",
                fmt("flow %" PRIu64 ": arrival count regressed %lld -> %u", pkt.flow,
                    static_cast<long long>(f.max_ack_cnt), pkt.ack_psn));
      } else {
        f.max_ack_cnt = pkt.ack_psn;
      }
      return;
    }
    case PktType::kHeaderOnly: {
      // A host emitting an HO is the receiver's bounce (§4.1 step 2); it
      // must be backed by a trimmed HO that actually arrived there.
      FlowState& f = flow(pkt.flow);
      f.bounces++;
      if (f.bounces > f.ho_to_rx + f.ho_other) {
        violate("ho-conservation",
                fmt("flow %" PRIu64 ": bounce #%" PRIu64 " exceeds HO arrivals %" PRIu64
                    " (forged HO)",
                    pkt.flow, f.bounces, f.ho_to_rx + f.ho_other));
      }
      return;
    }
    default:
      return;
  }
}

void InvariantOracle::on_host_deliver(NodeId host, const Packet& pkt) {
  MaybeLock lk(mu_, mt_);
  record('D', host, pkt);
  if (pkt.type != PktType::kHeaderOnly) return;
  FlowState& f = flow(pkt.flow);
  if (!f.endpoints_known) {
    f.ho_other++;
  } else if (host == f.dst) {
    f.ho_to_rx++;
  } else if (host == f.src) {
    f.ho_to_tx++;
  } else {
    violate("ho-conservation",
            fmt("flow %" PRIu64 ": HO delivered to host %u, neither src %u nor dst %u", pkt.flow,
                host, f.src, f.dst));
  }
}

void InvariantOracle::on_msg_complete(FlowId id, std::uint32_t msn) {
  MaybeLock lk(mu_, mt_);
  if (!frozen_) {
    Packet p;
    p.flow = id;
    p.msn = msn;
    record('M', kInvalidNode, p);
  }
  FlowState& f = flow(id);
  if (msn < f.next_msg) {
    violate("exactly-once-message",
            fmt("flow %" PRIu64 ": message %u completed again (eMSN already %u)", id, msn,
                f.next_msg));
  } else if (msn > f.next_msg) {
    violate("exactly-once-message",
            fmt("flow %" PRIu64 ": message %u completed before message %u", id, msn, f.next_msg));
  } else {
    f.next_msg++;
  }
  if (!f.tracking_checked) {
    f.tracking_checked = true;
    check_bounded_tracking(id, f);
  }
}

void InvariantOracle::check_bounded_tracking(FlowId id, FlowState& f) {
  if (!f.endpoints_known) return;
  Host* h = net_.host(f.dst);
  if (h == nullptr) return;
  const auto* rx = dynamic_cast<const DcpReceiver*>(h->receiver(id));
  if (rx == nullptr) return;  // bitmap variant / other schemes: not bound
  // §4.5: tracking state must scale with the outstanding-message window,
  // never with the flow.  The generous constant absorbs bookkeeping
  // (eMSN, flags) while still catching any per-packet or per-message-count
  // structure, which grows with the flow length.
  const std::uint64_t outstanding = kDcpOutstandingMsgs;
  const std::uint64_t bound = outstanding * 16 + 64;
  const std::uint64_t mem = rx->tracker().memory_bytes();
  if (mem > bound) {
    violate("bounded-tracking",
            fmt("flow %" PRIu64 ": tracker uses %" PRIu64 " B, bound %" PRIu64
                " B for %" PRIu64 " outstanding messages",
                id, mem, bound, outstanding));
  }
}

void InvariantOracle::on_rx_complete(FlowId id) {
  MaybeLock lk(mu_, mt_);
  if (!frozen_) {
    Packet p;
    p.flow = id;
    record('R', kInvalidNode, p);
  }
  FlowState& f = flow(id);
  if (++f.rx_fires > 1) {
    violate("exactly-once-completion",
            fmt("flow %" PRIu64 ": receiver completion fired %u times", id, f.rx_fires));
  }
}

void InvariantOracle::on_tx_complete(FlowId id) {
  MaybeLock lk(mu_, mt_);
  if (!frozen_) {
    Packet p;
    p.flow = id;
    record('F', kInvalidNode, p);
  }
  FlowState& f = flow(id);
  if (++f.tx_fires > 1) {
    violate("exactly-once-completion",
            fmt("flow %" PRIu64 ": sender completion fired %u times", id, f.tx_fires));
  }
}

void InvariantOracle::on_trim(NodeId sw, const Packet& ho) {
  MaybeLock lk(mu_, mt_);
  record('T', sw, ho);
  flow(ho.flow).trims++;
}

void InvariantOracle::on_drop(DropSite site, NodeId node, const Packet& pkt) {
  MaybeLock lk(mu_, mt_);
  record('X', node, pkt, static_cast<std::uint8_t>(site));
  if (pkt.type != PktType::kHeaderOnly) return;
  // An unroutable HO still *landed* at a host — on_host_deliver already
  // booked it, so booking a loss too would double-count.
  if (site == DropSite::kHostUnroutable) return;
  flow(pkt.flow).ho_lost++;
}

// The clean-path replay runs inline at the SharedBuffer call sites (see
// BufferShadow in check/observer.h); these hooks are the cold path — they
// fire only when a step diverged, report it, and resync the shadow so one
// bug reports once, not per event.

void InvariantOracle::on_buffer_alloc(const SharedBuffer* buf, std::uint32_t /*in_port*/,
                                      std::uint8_t /*cls*/, std::uint64_t bytes,
                                      std::uint64_t used_after) {
  MaybeLock lk(mu_, mt_);
  BufferShadow* sh = buf->check_shadow();
  violate("buffer-conservation",
          fmt("alloc of %" PRIu64 " B: buffer reports %" PRIu64 " B used, ledger %" PRIu64,
              bytes, used_after, sh->used));
  sh->used = used_after;
}

void InvariantOracle::on_buffer_release(const SharedBuffer* buf, std::uint32_t in_port,
                                        std::uint8_t cls, std::uint64_t bytes,
                                        std::uint64_t used_after) {
  MaybeLock lk(mu_, mt_);
  BufferShadow* sh = buf->check_shadow();
  const std::size_t key = static_cast<std::size_t>(in_port) * kNumQueueClasses + cls;
  if (sh->last_fail == ShadowFail::kUnderflow) {
    violate("buffer-conservation",
            fmt("release of %" PRIu64 " B from port %u class %u without a matching alloc "
                "(held: %" PRIu64 " B)",
                bytes, in_port, cls, key < sh->per_key.size() ? sh->per_key[key] : 0));
    if (key < sh->per_key.size()) sh->per_key[key] = 0;
    sh->used = used_after;
    return;
  }
  violate("buffer-conservation",
          fmt("release of %" PRIu64 " B: buffer reports %" PRIu64 " B used, ledger %" PRIu64,
              bytes, used_after, sh->used));
  sh->used = used_after;
}

// ---------------------------------------------------------------------------
// End-of-run audit
// ---------------------------------------------------------------------------

void InvariantOracle::finalize() {
  if (finalized_) return;
  finalized_ = true;
  ShardGroup* g = net_.shard_group();
  const bool quiesced = g != nullptr && g->sharded() ? g->idle() : sim_.idle();

  for (const FlowRecord& rec : net_.records()) {
    if (rec.complete()) {
      if (rec.receiver.bytes_received != rec.spec.bytes) {
        violate("completion-consistency",
                fmt("flow %" PRIu64 ": completed with %" PRIu64 " B received, flow is %" PRIu64
                    " B",
                    rec.spec.id, rec.receiver.bytes_received, rec.spec.bytes));
      }
      // recovery-accounting (FEC): decode-recovered and NACK-recovered
      // chunks partition the repaired losses, so their sum can never exceed
      // the flow's data-packet count — an overshoot means a chunk was
      // credited twice (e.g. counted by the decoder and again when the
      // retransmission landed), which completion-consistency alone can miss
      // when offsetting byte errors cancel out.
      std::uint64_t data_pkts = (rec.spec.bytes + kMtuPayload - 1) / kMtuPayload;
      if (data_pkts == 0) data_pkts = 1;
      const std::uint64_t recovered =
          rec.receiver.decode_recovered_packets + rec.receiver.nack_recovered_packets;
      if (recovered > data_pkts) {
        violate("recovery-accounting",
                fmt("flow %" PRIu64 ": %" PRIu64 " chunks recovered (%" PRIu64
                    " decode + %" PRIu64 " NACK) out of only %" PRIu64 " data packets",
                    rec.spec.id, recovered, rec.receiver.decode_recovered_packets,
                    rec.receiver.nack_recovered_packets, data_pkts));
      }
    } else if (quiesced) {
      violate("no-silent-deadlock",
              fmt("flow %" PRIu64 ": simulator quiesced but the flow never completed "
                  "(%" PRIu64 " of %" PRIu64 " B delivered)",
                  rec.spec.id, rec.receiver.bytes_received, rec.spec.bytes));
    }
  }

  if (quiesced) {
    const auto audit_ho = [this](FlowId id, const FlowState& f) {
      const std::uint64_t created = f.trims + f.bounces;
      const std::uint64_t consumed = f.ho_to_rx + f.ho_to_tx + f.ho_other + f.ho_lost;
      if (created != consumed) {
        violate("ho-conservation",
                fmt("flow %" PRIu64 ": %" PRIu64 " HOs created (%" PRIu64 " trims + %" PRIu64
                    " bounces) but %" PRIu64 " accounted (%" PRIu64 " rx, %" PRIu64
                    " tx, %" PRIu64 " lost)",
                    id, created, f.trims, f.bounces, consumed, f.ho_to_rx + f.ho_other,
                    f.ho_to_tx, f.ho_lost));
      }
    };
    for (FlowId id = 0; id < flows_.size(); ++id) audit_ho(id, flows_[id]);
    for (const auto& [id, f] : sparse_flows_) audit_ho(id, f);
    for (const auto& [buf, b] : buffers_) {
      if (b->used != 0 || buf->used() != 0) {
        violate("buffer-conservation",
                fmt("buffer holds %" PRIu64 " B (ledger %" PRIu64 " B) after quiesce — leaked "
                    "cells",
                    buf->used(), b->used));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

std::string InvariantOracle::summary() const {
  if (violations_.empty()) return "all invariants held";
  const InvariantViolation& v = violations_.front();
  std::string s =
      fmt("[%s] at %.3fus: ", v.invariant.c_str(), to_us(v.at)) + v.detail;
  const std::uint64_t more = violations_.size() - 1 + suppressed_;
  if (more > 0) s += fmt(" (+%" PRIu64 " more)", more);
  return s;
}

std::string InvariantOracle::trace_slice(std::size_t max_events) const {
  const std::size_t stored = ring_wrapped_ ? ring_.size() : ring_next_;
  const std::size_t n = stored < max_events ? stored : max_events;
  std::string out;
  char buf[160];
  for (std::size_t i = 0; i < n; ++i) {
    // Oldest-first among the last n events.
    const std::size_t idx = (ring_next_ + ring_.size() - n + i) % ring_.size();
    const TraceEv& e = ring_[idx];
    const char* what = "?";
    switch (e.kind) {
      case 'S': what = "send"; break;
      case 'D': what = "deliver"; break;
      case 'T': what = "trim"; break;
      case 'X': what = "drop"; break;
      case 'M': what = "msg-complete"; break;
      case 'R': what = "rx-complete"; break;
      case 'F': what = "tx-complete"; break;
    }
    std::snprintf(buf, sizeof(buf), "%10.3fus  %-12s flow=%" PRIu64 " %s psn=%u msn=%u retry=%u",
                  to_us(e.at), what, e.flow, pkt_type_name(e.type), e.psn, e.msn, e.retry);
    out += buf;
    if (e.kind == 'X') {
      out += " site=";
      out += drop_site_name(static_cast<DropSite>(e.site));
    }
    if (e.node != kInvalidNode) {
      std::snprintf(buf, sizeof(buf), " node=%u", e.node);
      out += buf;
    }
    out += '\n';
  }
  return out;
}


void InvariantOracle::checkpoint(StateIO& io) {
  io.label(0x02AC1Eu);
  auto flow_state = [](StateIO& s, FlowState& f) {
    s.pod(f.src);
    s.pod(f.dst);
    s.pod(f.endpoints_known);
    s.pod(f.max_new_psn);
    s.pod(f.next_msg);
    s.pod(f.rx_fires);
    s.pod(f.tx_fires);
    s.pod(f.max_ack_emsn);
    s.pod(f.max_ack_cnt);
    s.pod(f.trims);
    s.pod(f.bounces);
    s.pod(f.ho_to_rx);
    s.pod(f.ho_to_tx);
    s.pod(f.ho_other);
    s.pod(f.ho_lost);
    s.vec(f.retry_seen);
    s.pod(f.tracking_checked);
  };
  io.each(flows_, flow_state);
  // Sparse states (forged flow ids) sorted by id for a canonical stream.
  std::vector<FlowId> sids;
  sids.reserve(sparse_flows_.size());
  for (auto& kv : sparse_flows_) sids.push_back(kv.first);
  std::sort(sids.begin(), sids.end());
  std::uint64_t sn = sids.size();
  io.pod(sn);
  if (io.saving()) {
    for (FlowId id : sids) {
      FlowId rid = id;
      io.pod(rid);
      flow_state(io, sparse_flows_.at(id));
    }
  } else {
    sparse_flows_.clear();
    for (std::uint64_t i = 0; i < sn && io.ok(); ++i) {
      FlowId id = 0;
      io.pod(id);
      flow_state(io, sparse_flows_[id]);
    }
  }
  // Buffer shadows: the watch list itself is rebuilt by the constructor in
  // the same order, so only the replay state is overlaid.
  io.fixed(buffers_, [](StateIO& s, std::pair<const SharedBuffer*, std::unique_ptr<BufferShadow>>& b) {
    s.pod(b.second->used);
    s.vec(b.second->per_key);
    s.pod(b.second->last_fail);
  });
  io.fixed(ring_, [](StateIO& s, TraceEv& e) { s.pod(e); });
  io.pod(ring_next_);
  io.pod(ring_wrapped_);
  io.pod(frozen_);
  io.each(violations_, [](StateIO& s, InvariantViolation& v) {
    s.str(v.invariant);
    s.str(v.detail);
    s.pod(v.at);
  });
  io.pod(suppressed_);
  io.pod(finalized_);
  if (!io.saving() && io.ok() && ring_next_ >= kTraceRingEvents) {
    io.fail("oracle: trace cursor outside the ring");
  }
}

}  // namespace dcp
