// Fig. 17: loss recovery efficiency of DCP, RACK-TLP, IRN and the
// timeout-only scheme — goodput of a long-running flow under forced loss
// rates from 0 to 5% with ECMP.  All 28 rate x scheme trials fan out
// across the sweep pool (DCP_JOBS); results are indexed by trial, so the
// table is bit-identical to the old serial loop.

#include <cstdio>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"

using namespace dcp;

int main() {
  banner("Fig 17: goodput vs loss rate — DCP / RACK-TLP / IRN / Timeout");

  const double rates[] = {0.0, 0.0001, 0.001, 0.005, 0.01, 0.02, 0.05};
  const SchemeKind kinds[] = {SchemeKind::kDcp, SchemeKind::kRackTlp, SchemeKind::kIrn,
                              SchemeKind::kTimeout};

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

  Table t({"Loss rate", "DCP", "RACK-TLP", "IRN", "Timeout"});
  for (std::size_t r = 0; r < std::size(rates); ++r) {
    std::vector<std::string> row;
    char lbl[32];
    std::snprintf(lbl, sizeof(lbl), "%.2f%%", rates[r] * 100);
    row.push_back(lbl);
    for (std::size_t k = 0; k < std::size(kinds); ++k) {
      row.push_back(Table::num(goodput[r * std::size(kinds) + k], 2));
    }
    t.add_row(row);
  }
  t.print();
  report_sweep(pool, agg);

  std::printf("\nPaper shape: DCP stays near line rate; RACK-TLP trails it (retransmission\n"
              "delayed one RTT); IRN degrades with re-lost retransmissions; the pure\n"
              "timeout scheme collapses fastest.\n");
  return 0;
}
