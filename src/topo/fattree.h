#pragma once
// Three-tier k-ary fat-tree (Al-Fares et al.): k pods, (k/2)^2 core
// switches, k/2 aggregation + k/2 edge switches per pod, (k/2)^2 hosts per
// pod.  Complements the paper's two-tier CLOS for experiments that need
// multi-stage multipath (two independent AR decisions per direction).

#include <vector>

#include "topo/network.h"

namespace dcp {

struct FatTreeParams {
  int k = 4;  // must be even; k=4 -> 16 hosts, k=8 -> 128 hosts
  Bandwidth link = Bandwidth::gbps(100);
  Time link_delay = microseconds(1);
  SwitchConfig sw;

  int pods() const { return k; }
  int hosts() const { return k * k * k / 4; }
  int cores() const { return k * k / 4; }
};

struct FatTreeTopology {
  FatTreeParams params;
  std::vector<Host*> hosts;                        // pod-major order
  std::vector<std::vector<Switch*>> edge;          // [pod][i]
  std::vector<std::vector<Switch*>> agg;           // [pod][i]
  std::vector<Switch*> core;

  int pod_of(int host_index) const {
    return host_index / (params.k * params.k / 4);
  }
  int edge_of(int host_index) const {
    return (host_index % (params.k * params.k / 4)) / (params.k / 2);
  }
};

/// Builds the fat-tree inside `net`, installs routes (up: any valid
/// uplink; down: deterministic) and path_info.
///
/// Shard-aware: when `net` is driven by a ShardGroup, pods are assigned
/// whole to shards (pod p -> shard p*shards/pods) and core switches are
/// spread round-robin, so every cross-shard link is an aggregation<->core
/// hop and the conservative lookahead is that link's propagation delay.
/// Up-routes are installed as per-switch default groups (one shared ECMP
/// list instead of hosts() copies), keeping the k=32 route state in
/// megabytes; candidate order matches the per-destination install order
/// exactly, so picks — and digests — are unchanged.
FatTreeTopology build_fattree(Network& net, FatTreeParams params);

}  // namespace dcp
