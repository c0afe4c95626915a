// Ablation: the packet-trimming threshold.
//
// The paper leaves the data-queue trim threshold unspecified.  This sweep
// shows the trade-off on WebSearch + incast traffic: shallow thresholds
// bound queueing delay but trim aggressively and put DCP ACKs at risk
// (they are dropped above the threshold, §4.2); deep thresholds behave
// like a lossy fabric that rarely trims.

#include <cstdio>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"

using namespace dcp;

namespace {

WorldSpec cell(std::uint64_t threshold) {
  WorldSpec s = experiment_world(Experiment::kWebSearch);
  s.opt.data_queue_bytes = threshold;
  s.clos.hosts_per_leaf = full_scale() ? 16 : 4;
  s.load = 0.5;
  s.poisson_flows = full_scale() ? 4000 : 400;
  s.with_incast = true;
  s.incast.fan_in = full_scale() ? 64 : 12;
  s.incast.bursts = 8;
  s.incast.load = 0.05;
  s.incast.bytes_per_sender = 256 * 1024;
  s.max_time = seconds(5);
  return s;
}

}  // namespace

int main() {
  banner("Ablation: trim threshold (WebSearch 0.5 + incast 0.05, DCP)");

  const std::uint64_t thresholds[] = {64ull * 1024, 256ull * 1024, 1024ull * 1024,
                                      4096ull * 1024};
  SweepRunner pool;
  CorePerfAggregator agg;
  std::vector<WebSearchResult> results = pool.run(std::size(thresholds), [&](std::size_t i) {
    SimWorld w(cell(thresholds[i]));
    WebSearchResult r = read_websearch(w);
    agg.add(r.core);
    return r;
  });

  Table t({"Threshold", "P50", "P99", "Trims", "ACK drops", "RTOs"});
  for (std::size_t i = 0; i < std::size(thresholds); ++i) {
    const std::uint64_t th = thresholds[i];
    WebSearchResult& r = results[i];
    t.add_row({Table::bytes_human(th), Table::num(r.background.overall().percentile(50), 2),
               Table::num(r.background.overall().percentile(99), 2), std::to_string(r.sw.trimmed),
               std::to_string(r.sw.dropped_ctrl),
               std::to_string(r.timeouts_background + r.timeouts_incast)});
  }
  t.print();
  report_sweep(pool, agg);

  std::printf("\nShallower thresholds trim more and drop more DCP ACKs (which must be\n"
              "healed by receiver keepalives or the coarse timeout); the default (1 MB,\n"
              "matching the lossy baselines' drop depth) isolates recovery behaviour.\n");
  return 0;
}
