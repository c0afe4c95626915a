#pragma once
// Poisson open-loop flow generation over a host set at a target load.

#include <cstdint>
#include <vector>

#include "topo/network.h"
#include "workload/size_dist.h"

namespace dcp {

struct FlowGenParams {
  double load = 0.3;               // fraction of per-host NIC capacity
  Bandwidth host_rate = Bandwidth::gbps(100);
  std::size_t num_flows = 1000;    // open-loop arrival count
  Time start = 0;
  std::uint64_t seed = 42;
  std::uint64_t msg_bytes = 1024 * 1024;  // DCP message granularity
  RdmaOp op = RdmaOp::kWrite;
};

/// Registers `num_flows` Poisson arrivals with WebSearch (or custom) sizes
/// between uniformly random distinct hosts.  Returns the generated specs'
/// flow ids.
std::vector<FlowId> generate_poisson_flows(Network& net, const std::vector<Host*>& hosts,
                                           const SizeDist& dist, const FlowGenParams& p);

/// Permutation traffic: every host sends one flow of `bytes` to a distinct
/// partner (a random derangement), all starting at `start`.  The classic
/// fabric stress pattern: every NIC is both a sender and a receiver at
/// full rate, and cross-fabric load is perfectly admissible — any loss or
/// slowdown is the fabric's fault, not oversubscription.
std::vector<FlowId> generate_permutation(Network& net, const std::vector<Host*>& hosts,
                                         std::uint64_t bytes, Time start = 0,
                                         std::uint64_t seed = 9,
                                         std::uint64_t msg_bytes = 4 * 1024 * 1024);

}  // namespace dcp
