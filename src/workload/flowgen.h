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
/// flow ids; with fewer than two hosts there is no such pair, so it
/// registers nothing and returns none.
std::vector<FlowId> generate_poisson_flows(Network& net, const std::vector<Host*>& hosts,
                                           const SizeDist& dist, const FlowGenParams& p);

}  // namespace dcp
