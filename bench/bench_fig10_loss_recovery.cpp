// Fig. 10: loss recovery efficiency — goodput of a long-running cross-
// switch flow while switch 1 force-drops (CX5) or force-trims (DCP) data
// packets at rates from 0.01% to 5%.  The rate x scheme matrix fans out
// across the sweep pool (DCP_JOBS); results are indexed by trial, so the
// table is bit-identical to the old serial loop.

#include <cstdio>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"

using namespace dcp;

int main() {
  banner("Fig 10: goodput vs forced loss rate (testbed, long flow)");

  const double rates[] = {0.0, 0.0001, 0.001, 0.005, 0.01, 0.02, 0.05};
  const SchemeKind kinds[] = {SchemeKind::kCx5, SchemeKind::kDcp};

  struct Trial {
    double rate;
    SchemeKind k;
  };
  std::vector<Trial> trials;
  for (double rate : rates) {
    for (SchemeKind k : kinds) trials.push_back({rate, k});
  }

  SweepRunner pool;
  CorePerfAggregator agg;
  const std::vector<double> goodput = pool.run(trials.size(), [&](std::size_t i) {
    WorldSpec s = experiment_world(Experiment::kLongFlow);
    s.scheme = trials[i].k;
    s.loss_rate = trials[i].rate;
    s.flows[0].bytes = full_scale() ? 100ull * 1000 * 1000 : 20ull * 1000 * 1000;
    s.max_time = milliseconds(full_scale() ? 500 : 100);
    SimWorld w(s);
    const FlowResult r = read_flow(w);
    agg.add(r.core);
    return r.goodput_gbps;
  });

  Table t({"Loss rate", "CX5 (Gbps)", "DCP (Gbps)", "DCP/CX5"});
  for (std::size_t r = 0; r < std::size(rates); ++r) {
    const double cx5 = goodput[2 * r];
    const double dcp = goodput[2 * r + 1];
    char lbl[32];
    std::snprintf(lbl, sizeof(lbl), "%.2f%%", rates[r] * 100);
    t.add_row({lbl, Table::num(cx5, 2), Table::num(dcp, 2),
               cx5 > 0 ? Table::num(dcp / cx5, 1) + "x" : "-"});
  }
  t.print();
  report_sweep(pool, agg);

  std::printf("\nPaper shape: DCP holds near line rate across the sweep; CX5 (GBN)\n"
              "collapses as loss grows — 1.6x at 0.01%% up to ~72x at 5%%.\n");
  return 0;
}
