// Fig. 14: AI workloads in simulation — groups of servers on the CLOS run
// ring-AllReduce / AllToAll; reports per-group JCT against the ideal bound
// and the CDF of individual flow FCTs, for PFC / IRN / MP-RDMA / DCP.
// Both collectives x all four schemes fan out across the sweep pool
// (DCP_JOBS) before any table is printed.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "stats/percentile.h"

using namespace dcp;

namespace {

constexpr SchemeKind kKinds[] = {SchemeKind::kPfc, SchemeKind::kIrn, SchemeKind::kMpRdma,
                                 SchemeKind::kDcp};

void report_kind(const char* label, const std::vector<CollectiveResult>& results) {
  banner(std::string("Fig 14: ") + label + " JCT per group (ms)");
  Table t({"Group", "PFC", "IRN", "MP-RDMA", "DCP", "Ideal"});
  const std::size_t groups = results[0].jct_ms.size();
  for (std::size_t g = 0; g < groups; ++g) {
    std::vector<std::string> row{std::to_string(g + 1)};
    for (auto& r : results) row.push_back(Table::num(r.jct_ms[g], 2));
    row.push_back(Table::num(results[0].ideal_jct_ms, 2));
    t.add_row(row);
  }
  t.print();

  banner(std::string("Fig 14: ") + label + " per-flow FCT CDF (ms)");
  Table c({"Percentile", "PFC", "IRN", "MP-RDMA", "DCP"});
  for (double pct : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    std::vector<std::string> row{"P" + Table::num(pct, 0)};
    for (auto& r : results) {
      PercentileEstimator pe;
      for (double v : r.flow_fct_ms) pe.add(v);
      row.push_back(Table::num(pe.percentile(pct), 3));
    }
    c.add_row(row);
  }
  c.print();
}

}  // namespace

int main() {
  const CollectiveKind collectives[] = {CollectiveKind::kAllReduce, CollectiveKind::kAllToAll};

  struct Trial {
    CollectiveKind kind;
    SchemeKind k;
  };
  std::vector<Trial> trials;
  for (CollectiveKind kind : collectives) {
    for (SchemeKind k : kKinds) trials.push_back({kind, k});
  }

  SweepRunner pool;
  CorePerfAggregator agg;
  const std::vector<CollectiveResult> results = pool.run(trials.size(), [&](std::size_t i) {
    WorldSpec s = experiment_world(Experiment::kCollective);
    s.collective = trials[i].kind;
    s.scheme = trials[i].k;
    if (full_scale()) {
      s.clos.spines = 16;
      s.clos.leaves = 16;
      s.clos.hosts_per_leaf = 16;
      s.groups = 16;
      s.members = 16;
      s.collective_bytes = 300ull * 1000 * 1000;
    } else {
      s.clos.spines = 4;
      s.clos.leaves = 4;
      s.clos.hosts_per_leaf = 4;
      s.groups = 4;
      s.members = 4;
      s.collective_bytes = 24ull * 1024 * 1024;
    }
    SimWorld w(s);
    CollectiveResult r = read_collectives(w);
    agg.add(r.core);
    return r;
  });

  const char* labels[] = {"AllReduce", "AllToAll"};
  for (std::size_t c = 0; c < std::size(collectives); ++c) {
    const std::vector<CollectiveResult> slice(results.begin() + c * std::size(kKinds),
                                              results.begin() + (c + 1) * std::size(kKinds));
    report_kind(labels[c], slice);
  }
  report_sweep(pool, agg);

  std::printf("\nPaper shape: DCP has the lowest JCT (38%%/44%%/61%% below MP-RDMA/IRN/PFC\n"
              "for AllReduce; 5%%/45%%/46%% for AllToAll) because synchronized collectives\n"
              "are gated by the slowest flow and DCP has the best tail FCT.\n");
  return 0;
}
