// Fig. 13: WebSearch workload on the two-layer CLOS — FCT slowdown (P50,
// P95) per flow-size bucket at average loads 0.3 and 0.5 for PFC(+ECMP),
// IRN(+AR), MP-RDMA and DCP(+AR).  The whole load x scheme matrix fans out
// across the sweep pool (DCP_JOBS) before any table is printed.

#include <cstdio>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"

using namespace dcp;

namespace {

constexpr SchemeKind kKinds[] = {SchemeKind::kPfc, SchemeKind::kIrn, SchemeKind::kMpRdma,
                                 SchemeKind::kDcp};

// Non-const: percentile queries sort the underlying samples lazily.
void report_load(double load, std::vector<WebSearchResult>& results) {
  for (double pct : {50.0, 95.0}) {
    char title[96];
    std::snprintf(title, sizeof(title), "Fig 13: WebSearch load %.1f, P%.0f FCT slowdown", load,
                  pct);
    banner(title);
    Table t({"Flow size <=", "PFC (ECMP)", "IRN (AR)", "MP-RDMA", "DCP (AR)"});
    const auto edges = results[0].background.bucket_edges();
    std::vector<std::vector<double>> cols;
    for (auto& r : results) cols.push_back(r.background.per_bucket_percentile(pct));
    for (std::size_t b = 0; b < edges.size(); ++b) {
      bool any = false;
      for (auto& c : cols) any = any || c[b] > 0;
      if (!any) continue;
      const std::string lbl =
          edges[b] == UINT64_MAX ? ">last" : std::to_string(edges[b] / 1000) + " KB";
      std::vector<std::string> row{lbl};
      for (auto& c : cols) row.push_back(c[b] > 0 ? Table::num(c[b], 2) : "-");
      t.add_row(row);
    }
    std::vector<std::string> overall{"OVERALL"};
    for (auto& r : results) overall.push_back(Table::num(r.background.overall().percentile(pct), 2));
    t.add_row(overall);
    t.print();
  }
}

}  // namespace

int main() {
  const double loads[] = {0.3, 0.5};

  struct Trial {
    double load;
    SchemeKind k;
  };
  std::vector<Trial> trials;
  for (double load : loads) {
    for (SchemeKind k : kKinds) trials.push_back({load, k});
  }

  SweepRunner pool;
  CorePerfAggregator agg;
  std::vector<WebSearchResult> results = pool.run(trials.size(), [&](std::size_t i) {
    WorldSpec s = experiment_world(Experiment::kWebSearch);
    s.scheme = trials[i].k;
    s.load = trials[i].load;
    if (full_scale()) {
      s.clos.spines = 16;
      s.clos.leaves = 16;
      s.clos.hosts_per_leaf = 16;
      s.poisson_flows = 20000;
    } else {
      s.clos.spines = 4;
      s.clos.leaves = 4;
      s.clos.hosts_per_leaf = 4;
      s.poisson_flows = 500;
    }
    SimWorld w(s);
    WebSearchResult r = read_websearch(w);
    agg.add(r.core);
    return r;
  });

  for (std::size_t l = 0; l < std::size(loads); ++l) {
    std::vector<WebSearchResult> slice(results.begin() + l * std::size(kKinds),
                                       results.begin() + (l + 1) * std::size(kKinds));
    report_load(loads[l], slice);
  }
  report_sweep(pool, agg);

  std::printf("\nPaper shape: fine-grained LB (DCP, MP-RDMA, IRN+AR) beats PFC+ECMP; among\n"
              "them DCP has the best tail (IRN pays for spurious retransmissions under\n"
              "AR, MP-RDMA for its bounded OOO tolerance).\n");
  return 0;
}
