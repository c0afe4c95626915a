#pragma once
// Static routing tables + per-packet load-balancing policies.
//
// Topology builders install, for every (switch, destination host), the set
// of equal-cost egress ports.  The load-balancing policy then picks one
// port per packet:
//   * ECMP        — flow-hash, stable per flow (the RNIC-SR assumption);
//   * Adaptive    — least-loaded data queue among candidates (the paper's
//                   in-network adaptive routing, per-packet);
//   * SourcePath  — honour the packet's path_id (MP-RDMA virtual paths).

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace dcp {

enum class LbPolicy : std::uint8_t {
  kEcmp,        // flow-hash, stable per flow
  kAdaptive,    // least-loaded egress data queue, per packet
  kSourcePath,  // honour the packet's path_id (MP-RDMA virtual paths)
  kSpray,       // uniform random per packet (packet spraying)
  kFlowlet,     // flowlet switching: reuse the last port while packets of
                // the flow arrive within the flowlet gap, else re-pick the
                // least-loaded port (CONGA/LetFlow-style)
};

/// Non-owning view of a candidate egress-port set.  The per-packet routing
/// path hands these around instead of `const std::vector&` so the table can
/// store single-port entries inline (no per-destination heap vector) — at
/// fat-tree k=32 the dense vector-of-vectors table cost gigabytes across
/// 1280 switches; the compact encoding costs megabytes.
class RouteView {
 public:
  RouteView() = default;
  RouteView(const std::uint32_t* ports, std::size_t n) : ports_(ports), n_(static_cast<std::uint32_t>(n)) {}
  RouteView(const std::vector<std::uint32_t>& v)  // NOLINT: implicit by design
      : ports_(v.data()), n_(static_cast<std::uint32_t>(v.size())) {}

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  std::uint32_t operator[](std::size_t i) const { return ports_[i]; }
  const std::uint32_t* begin() const { return ports_; }
  const std::uint32_t* end() const { return ports_ + n_; }

  friend bool operator==(const RouteView& a, const std::vector<std::uint32_t>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  const std::uint32_t* ports_ = nullptr;
  std::uint32_t n_ = 0;
};

/// Compact per-switch routing table.
///
/// NodeIds are small and sequential, so lookups stay a dense indexed load —
/// but the dense window covers only [base, base + entries) (hosts occupy a
/// contiguous id range per switch role), and each entry is one word:
/// either the single egress port inline, or a tagged index into the
/// (rare) multi-port spill lists.  Destinations outside the window, or
/// explicitly unset inside it, fall back to the default group — fat-tree
/// edge/aggregation switches route every non-local destination up the same
/// ECMP uplink set, so one shared list replaces hosts() copies of it.
class RouteTable {
 public:
  void add_route(NodeId dst, std::uint32_t egress_port) {
    std::uint32_t& e = slot(dst);
    if (e == kNoRoute) {
      e = egress_port;  // ports are tiny; kMultiBit is unreachable by a real port
    } else if ((e & kMultiBit) != 0) {
      multi_lists_[e & ~kMultiBit].push_back(egress_port);
    } else {
      multi_lists_.push_back({e, egress_port});
      e = kMultiBit | static_cast<std::uint32_t>(multi_lists_.size() - 1);
    }
  }
  void clear_routes(NodeId dst) {
    if (dst >= base_ && dst - base_ < entries_.size()) entries_[dst - base_] = kNoRoute;
  }

  /// Shared fallback for every destination without a specific entry.  The
  /// candidate order is the install order, exactly as per-dst add_route
  /// calls would have produced, so ECMP picks are unchanged.
  void set_default_routes(std::vector<std::uint32_t> ports) {
    default_group_ = std::move(ports);
  }
  const std::vector<std::uint32_t>& default_routes() const { return default_group_; }

  /// Candidate egress ports toward `dst`; empty if unknown.
  RouteView candidates(NodeId dst) const {
    if (dst >= base_ && dst - base_ < entries_.size()) {
      const std::uint32_t e = entries_[dst - base_];
      if (e != kNoRoute) {
        if ((e & kMultiBit) == 0) return RouteView(&entries_[dst - base_], 1);
        return RouteView(multi_lists_[e & ~kMultiBit]);
      }
    }
    return RouteView(default_group_);
  }

  bool has_route(NodeId dst) const { return !candidates(dst).empty(); }

  /// Bytes of table storage (capacity, not size) — the arena accounting hook.
  std::size_t memory_bytes() const {
    std::size_t b = entries_.capacity() * sizeof(std::uint32_t) +
                    default_group_.capacity() * sizeof(std::uint32_t) +
                    multi_lists_.capacity() * sizeof(std::vector<std::uint32_t>);
    for (const auto& v : multi_lists_) b += v.capacity() * sizeof(std::uint32_t);
    return b;
  }

 private:
  static constexpr std::uint32_t kNoRoute = UINT32_MAX;
  static constexpr std::uint32_t kMultiBit = 0x80000000u;

  std::uint32_t& slot(NodeId dst) {
    if (entries_.empty()) {
      base_ = dst;
      entries_.push_back(kNoRoute);
    } else if (dst < base_) {
      // Front growth is construction-time only (builders install hosts in
      // ascending id order; attach() may add the local hosts afterwards).
      entries_.insert(entries_.begin(), base_ - dst, kNoRoute);
      base_ = dst;
    } else if (dst - base_ >= entries_.size()) {
      entries_.resize(dst - base_ + 1, kNoRoute);
    }
    return entries_[dst - base_];
  }

  NodeId base_ = 0;
  std::vector<std::uint32_t> entries_;             // port, kMultiBit|idx, or kNoRoute
  std::vector<std::vector<std::uint32_t>> multi_lists_;
  std::vector<std::uint32_t> default_group_;
};

/// Per-flow flowlet state for LbPolicy::kFlowlet.
struct FlowletEntry {
  std::uint32_t port = 0;
  Time last_seen = -1;
};

class FlowletTable {
 public:
  explicit FlowletTable(Time gap = microseconds(50)) : gap_(gap) {}

  /// Returns the cached port if the flow's inter-packet gap is below the
  /// flowlet gap; otherwise signals a new flowlet (caller re-picks).
  std::optional<std::uint32_t> lookup(FlowId flow, Time now) {
    auto it = table_.find(flow);
    if (it == table_.end() || now - it->second.last_seen > gap_) return std::nullopt;
    it->second.last_seen = now;
    return it->second.port;
  }
  void update(FlowId flow, std::uint32_t port, Time now) {
    table_[flow] = FlowletEntry{port, now};
  }
  Time gap() const { return gap_; }
  std::size_t entries() const { return table_.size(); }

  /// Checkpoint hook (sim/snapshot.h): entries serialized sorted by flow id
  /// so the image is independent of hash-map iteration order.
  template <typename IO>
  void checkpoint(IO& io) {
    std::uint64_t n = table_.size();
    io.pod(n);
    if (io.saving()) {
      std::vector<std::pair<FlowId, FlowletEntry>> v(table_.begin(), table_.end());
      std::sort(v.begin(), v.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (auto& [id, e] : v) {
        FlowId key = id;
        io.pod(key);
        io.pod(e.port);
        io.pod(e.last_seen);
      }
    } else {
      table_.clear();
      for (std::uint64_t i = 0; i < n && io.ok(); ++i) {
        FlowId key = 0;
        FlowletEntry e;
        io.pod(key);
        io.pod(e.port);
        io.pod(e.last_seen);
        if (io.ok()) table_[key] = e;
      }
    }
  }

 private:
  Time gap_;
  std::unordered_map<FlowId, FlowletEntry> table_;
};

/// Picks the least-loaded candidate with random tie-break (the adaptive
/// routing primitive).
template <typename QueueDepthFn>
std::uint32_t least_loaded(RouteView candidates, QueueDepthFn&& queue_bytes, Rng& rng) {
  std::uint32_t best = candidates[0];
  std::uint64_t best_depth = queue_bytes(best);
  int ties = 1;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const std::uint64_t d = queue_bytes(candidates[i]);
    if (d < best_depth) {
      best = candidates[i];
      best_depth = d;
      ties = 1;
    } else if (d == best_depth) {
      ++ties;
      if (rng.uniform_int(1, ties) == 1) best = candidates[i];
    }
  }
  return best;
}

/// Picks an egress port index into `candidates`.
/// `queue_bytes(port)` must return the egress data-queue depth for adaptive
/// routing decisions; `flowlets` may be null unless policy is kFlowlet.
template <typename QueueDepthFn>
std::uint32_t select_port(LbPolicy policy, const Packet& pkt, RouteView candidates,
                          QueueDepthFn&& queue_bytes, Rng& rng, Time now = 0,
                          FlowletTable* flowlets = nullptr) {
  if (candidates.size() == 1) return candidates[0];
  switch (policy) {
    case LbPolicy::kEcmp:
      return candidates[ecmp_key(pkt) % candidates.size()];
    case LbPolicy::kSourcePath:
      return candidates[pkt.path_id % candidates.size()];
    case LbPolicy::kSpray:
      return candidates[rng.pick_index(candidates.size())];
    case LbPolicy::kAdaptive:
      return least_loaded(candidates, queue_bytes, rng);
    case LbPolicy::kFlowlet: {
      if (flowlets != nullptr) {
        if (auto port = flowlets->lookup(pkt.flow, now)) {
          // Stale routes (candidate set changed) fall through to re-pick.
          for (std::uint32_t c : candidates) {
            if (c == *port) return *port;
          }
        }
        const std::uint32_t pick = least_loaded(candidates, queue_bytes, rng);
        flowlets->update(pkt.flow, pick, now);
        return pick;
      }
      return least_loaded(candidates, queue_bytes, rng);
    }
  }
  return candidates[0];
}

}  // namespace dcp
