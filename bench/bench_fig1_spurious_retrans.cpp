// Fig. 1: spurious retransmissions under packet-level load balancing.
// WebSearch at 0.3 load on the CLOS with adaptive routing, no injected
// loss: IRN misreads OOO arrivals as losses and retransmits massively;
// DCP retransmits nothing.  Reports (a) the mean retransmission ratio per
// flow-size bucket and (b) the CDF of per-flow retransmission ratios by
// size class.

#include <cstdio>
#include <map>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "stats/fct_stats.h"
#include "stats/percentile.h"

using namespace dcp;

namespace {

WebSearchResult run_one(SchemeKind k) {
  WorldSpec s = experiment_world(Experiment::kWebSearch);
  s.scheme = k;
  s.load = 0.3;
  if (full_scale()) {
    s.clos.spines = 16;
    s.clos.leaves = 16;
    s.clos.hosts_per_leaf = 16;
    s.poisson_flows = 10000;
  } else {
    s.clos.spines = 4;
    s.clos.leaves = 4;
    s.clos.hosts_per_leaf = 4;
    s.poisson_flows = 600;
  }
  SimWorld w(s);
  return read_websearch(w);
}

}  // namespace

int main() {
  banner("Fig 1: spurious retransmissions under AR (WebSearch 0.3, no loss)");

  const SchemeKind kinds[] = {SchemeKind::kIrn, SchemeKind::kDcp};
  SweepRunner pool;
  CorePerfAggregator agg;
  const std::vector<WebSearchResult> results = pool.run(std::size(kinds), [&](std::size_t i) {
    WebSearchResult r = run_one(kinds[i]);
    agg.add(r.core);
    return r;
  });
  report_sweep(pool, agg);
  const WebSearchResult& irn = results[0];
  const WebSearchResult& dcp = results[1];

  std::printf("Actual drops: IRN run = %llu, DCP run = %llu (loss-free by design)\n\n",
              static_cast<unsigned long long>(irn.sw.dropped_data + irn.sw.injected_drops),
              static_cast<unsigned long long>(dcp.sw.dropped_data + dcp.sw.injected_drops));

  // (a) Mean retransmission ratio per flow-size decade.
  Table a({"Flow size", "IRN retrans ratio", "DCP retrans ratio"});
  const std::uint64_t edges[] = {10'000, 100'000, 1'000'000, 10'000'000, UINT64_MAX};
  const char* labels[] = {"<=10KB", "<=100KB", "<=1MB", "<=10MB", ">10MB"};
  for (int b = 0; b < 5; ++b) {
    auto mean_of = [&](const WebSearchResult& r) {
      double sum = 0;
      int n = 0;
      for (const RetransSample& s : r.retrans) {
        const std::uint64_t lo = b == 0 ? 0 : edges[b - 1];
        if (s.flow_bytes > lo && s.flow_bytes <= edges[b]) {
          sum += s.retrans_ratio;
          ++n;
        }
      }
      return n > 0 ? sum / n : 0.0;
    };
    a.add_row({labels[b], Table::num(mean_of(irn), 3), Table::num(mean_of(dcp), 3)});
  }
  a.print();

  // (b) CDF of IRN's per-flow retransmission ratio by size class.
  banner("Fig 1b: CDF of IRN's retransmission ratio per size class");
  std::map<SizeClass, PercentileEstimator> cls;
  std::map<SizeClass, int> spurious;
  std::map<SizeClass, int> count;
  for (const RetransSample& s : irn.retrans) {
    const SizeClass c = size_class_of(s.flow_bytes);
    cls[c].add(s.retrans_ratio);
    count[c]++;
    if (s.retrans_ratio > 0) spurious[c]++;
  }
  Table b({"Class", "flows", "w/ retrans", "P50 ratio", "P90 ratio", "max"});
  for (SizeClass c : {SizeClass::kSmall, SizeClass::kMedium, SizeClass::kLarge}) {
    const double frac = count[c] > 0 ? 100.0 * spurious[c] / count[c] : 0.0;
    b.add_row({size_class_name(c), std::to_string(count[c]), Table::num(frac, 0) + "%",
               Table::num(cls[c].percentile(50), 3), Table::num(cls[c].percentile(90), 3),
               Table::num(cls[c].percentile(100), 3)});
  }
  b.print();

  std::printf("\nPaper shape: ~50%%/80%%/90%% of small/medium/large IRN flows retransmit\n"
              "spuriously (ratios up to 100%%); every DCP flow has ratio 0.\n");
  return 0;
}
