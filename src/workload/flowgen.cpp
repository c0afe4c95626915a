#include "workload/flowgen.h"

namespace dcp {

std::vector<FlowId> generate_poisson_flows(Network& net, const std::vector<Host*>& hosts,
                                           const SizeDist& dist, const FlowGenParams& p) {
  if (hosts.size() < 2) return {};
  Rng rng(p.seed);
  std::vector<FlowId> ids;
  ids.reserve(p.num_flows);

  // Aggregate arrival rate: load * sum of host capacities / mean flow size.
  const double bits_per_sec = p.host_rate.as_gbps() * 1e9 * static_cast<double>(hosts.size());
  const double flows_per_sec = p.load * bits_per_sec / (dist.mean_bytes() * 8.0);
  const double mean_gap_ps = static_cast<double>(kSecond) / flows_per_sec;

  Time t = p.start;
  for (std::size_t i = 0; i < p.num_flows; ++i) {
    t += static_cast<Time>(rng.exponential(mean_gap_ps));
    std::size_t src = rng.pick_index(hosts.size());
    std::size_t dst = rng.pick_index(hosts.size());
    int guard = 0;
    while (dst == src && guard++ < 64) dst = rng.pick_index(hosts.size());
    if (dst == src) dst = (src + 1) % hosts.size();

    FlowSpec spec;
    spec.src = hosts[src]->id();
    spec.dst = hosts[dst]->id();
    spec.bytes = dist.sample(rng);
    spec.start_time = t;
    spec.msg_bytes = p.msg_bytes;
    spec.op = p.op;
    spec.background = true;
    ids.push_back(net.start_flow(spec));
  }
  return ids;
}

}  // namespace dcp
