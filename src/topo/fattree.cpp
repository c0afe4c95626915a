#include "topo/fattree.h"

#include <algorithm>
#include <cassert>

namespace dcp {

FatTreeTopology build_fattree(Network& net, FatTreeParams p) {
  assert(p.k % 2 == 0 && "fat-tree arity must be even");
  FatTreeTopology topo;
  topo.params = p;
  const int half = p.k / 2;
  const int shards = net.shard_count();

  // Core switches, spread round-robin across shards: every agg<->core link
  // is then the (only) shard cut, so the conservative lookahead equals one
  // link propagation.
  for (int c = 0; c < p.cores(); ++c) {
    net.set_build_shard(shards > 0 ? c % shards : 0);
    topo.core.push_back(net.add_switch("core" + std::to_string(c), p.sw));
  }

  topo.edge.resize(static_cast<std::size_t>(p.pods()));
  topo.agg.resize(static_cast<std::size_t>(p.pods()));

  // Pods: edge + aggregation switches, hosts under edges.  A pod is placed
  // whole on one shard (pod*shards/pods), so edge<->agg and host<->edge
  // links never cross shards.
  for (int pod = 0; pod < p.pods(); ++pod) {
    net.set_build_shard(pod * shards / p.pods());
    for (int i = 0; i < half; ++i) {
      topo.agg[static_cast<std::size_t>(pod)].push_back(
          net.add_switch("agg" + std::to_string(pod) + "_" + std::to_string(i), p.sw));
    }
    for (int i = 0; i < half; ++i) {
      Switch* e = net.add_switch("edge" + std::to_string(pod) + "_" + std::to_string(i), p.sw);
      topo.edge[static_cast<std::size_t>(pod)].push_back(e);
      for (int h = 0; h < half; ++h) {
        Host* host = net.add_host(
            "h" + std::to_string(pod) + "_" + std::to_string(i) + "_" + std::to_string(h),
            p.link, p.link_delay);
        net.attach(host, e, p.link, p.link_delay);
        topo.hosts.push_back(host);
      }
    }
  }
  net.set_build_shard(0);

  // Edge <-> agg full mesh within each pod.
  // edge_up[pod][e][a] = port on edge e toward agg a, and vice versa.
  std::vector<std::vector<std::vector<std::uint32_t>>> edge_up(
      static_cast<std::size_t>(p.pods()));
  std::vector<std::vector<std::vector<std::uint32_t>>> agg_down(
      static_cast<std::size_t>(p.pods()));
  for (int pod = 0; pod < p.pods(); ++pod) {
    auto& eu = edge_up[static_cast<std::size_t>(pod)];
    auto& ad = agg_down[static_cast<std::size_t>(pod)];
    eu.assign(static_cast<std::size_t>(half), std::vector<std::uint32_t>(half));
    ad.assign(static_cast<std::size_t>(half), std::vector<std::uint32_t>(half));
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) {
        auto [pe, pa] = net.link(topo.edge[static_cast<std::size_t>(pod)][e],
                                 topo.agg[static_cast<std::size_t>(pod)][a], p.link, p.link_delay);
        eu[static_cast<std::size_t>(e)][static_cast<std::size_t>(a)] = pe;
        ad[static_cast<std::size_t>(a)][static_cast<std::size_t>(e)] = pa;
      }
    }
  }

  // Agg <-> core: aggregation switch a of every pod connects to cores
  // [a*half, (a+1)*half).
  std::vector<std::vector<std::uint32_t>> agg_up(
      static_cast<std::size_t>(p.pods() * half));  // [pod*half+a][j] port to core a*half+j
  std::vector<std::vector<std::uint32_t>> core_down(static_cast<std::size_t>(p.cores()));
  for (auto& v : core_down) v.resize(static_cast<std::size_t>(p.pods()));
  for (int pod = 0; pod < p.pods(); ++pod) {
    for (int a = 0; a < half; ++a) {
      auto& up = agg_up[static_cast<std::size_t>(pod * half + a)];
      up.resize(static_cast<std::size_t>(half));
      for (int j = 0; j < half; ++j) {
        const int c = a * half + j;
        auto [pa, pc] = net.link(topo.agg[static_cast<std::size_t>(pod)][a],
                                 topo.core[static_cast<std::size_t>(c)], p.link, p.link_delay);
        up[static_cast<std::size_t>(j)] = pa;
        core_down[static_cast<std::size_t>(c)][static_cast<std::size_t>(pod)] = pc;
      }
    }
  }

  // Routes, per switch instead of per (host, switch) — the builder used to
  // replicate the uplink list into a dense table for every one of the
  // hosts() destinations on every edge/agg switch, an O(hosts x switches)
  // memory and time blow-up at k>=16.  Up-routes are position-independent,
  // so they become each switch's default group (same candidate order as the
  // old per-destination lists: aggs in index order on edges, cores in index
  // order on aggs — ECMP picks are bit-identical).  Only down-routes, which
  // do depend on the destination, get per-host entries.
  const int hosts_per_pod = half * half;
  for (int pod = 0; pod < p.pods(); ++pod) {
    for (int e = 0; e < half; ++e) {
      topo.edge[static_cast<std::size_t>(pod)][e]->routes().set_default_routes(
          edge_up[static_cast<std::size_t>(pod)][static_cast<std::size_t>(e)]);
    }
    for (int a = 0; a < half; ++a) {
      Switch* sw = topo.agg[static_cast<std::size_t>(pod)][a];
      sw->routes().set_default_routes(agg_up[static_cast<std::size_t>(pod * half + a)]);
      for (int hp = 0; hp < hosts_per_pod; ++hp) {
        const int hi = pod * hosts_per_pod + hp;
        sw->routes().add_route(
            topo.hosts[static_cast<std::size_t>(hi)]->id(),
            agg_down[static_cast<std::size_t>(pod)][static_cast<std::size_t>(a)]
                    [static_cast<std::size_t>(topo.edge_of(hi))]);
      }
    }
  }
  for (int c = 0; c < p.cores(); ++c) {
    Switch* sw = topo.core[static_cast<std::size_t>(c)];
    for (int hi = 0; hi < p.hosts(); ++hi) {
      sw->routes().add_route(
          topo.hosts[static_cast<std::size_t>(hi)]->id(),
          core_down[static_cast<std::size_t>(c)][static_cast<std::size_t>(topo.pod_of(hi))]);
    }
  }

  // Path metadata.
  std::vector<NodeId> host_ids;
  for (auto* h : topo.hosts) host_ids.push_back(h->id());
  const Time d = p.link_delay;
  const Bandwidth bw = p.link;
  const int hpp = hosts_per_pod;
  net.path_info = [host_ids, half, hpp, d, bw](NodeId a, NodeId b) {
    PathInfo pi;
    pi.bottleneck = bw;
    auto idx = [&host_ids](NodeId id) {
      auto it = std::lower_bound(host_ids.begin(), host_ids.end(), id);
      return it != host_ids.end() && *it == id ? static_cast<int>(it - host_ids.begin()) : -1;
    };
    const int ia = idx(a);
    const int ib = idx(b);
    if (ia >= 0 && ib >= 0) {
      if (ia / half == ib / half) {  // same edge switch
        pi.one_way_delay = 2 * d;
        pi.hops = 2;
        return pi;
      }
      if (ia / hpp == ib / hpp) {  // same pod, via aggregation
        pi.one_way_delay = 4 * d;
        pi.hops = 4;
        return pi;
      }
    }
    pi.one_way_delay = 6 * d;  // via core
    pi.hops = 6;
    return pi;
  };

  return topo;
}

}  // namespace dcp
