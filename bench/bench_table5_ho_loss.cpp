// Table 5: robustness of the lossless control plane — the ratio of lost
// header-only packets under severe incast, with the WRR weight set from
// w = (N-1)/(r-N+1) for two values of the handled scale N, with and
// without DCQCN.  A shallow trim threshold maximizes trimming pressure.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "switch/scheduler.h"

using namespace dcp;

namespace {

struct Cfg {
  int n;
  int fan_in;
};

// Background WebSearch at 0.3 plus four big synchronized incasts.
WorldSpec cell(const Cfg& c, bool with_cc) {
  WorldSpec s = experiment_world(Experiment::kWebSearch);
  s.opt.with_cc = with_cc;
  const double r = 1073.0 / 57.0;  // data : HO wire-size ratio
  s.opt.control_weight = wrr_control_weight(c.n, r, /*fallback=*/1.0);
  s.opt.data_queue_bytes = 64 * 1024;  // stress the control plane
  s.clos.hosts_per_leaf = full_scale() ? 16 : 8;
  s.poisson_flows = full_scale() ? 2000 : 300;
  s.with_incast = true;
  s.incast.fan_in = std::min(c.fan_in, s.num_hosts() - 1);
  s.incast.bursts = 4;
  s.incast.load = 0.5;
  s.incast.bytes_per_sender = 64 * 1024;
  s.max_time = seconds(10);
  return s;
}

}  // namespace

int main() {
  banner("Table 5: HO packet loss ratio under severe incast");

  const int big = full_scale() ? 128 : 31;
  const int bigger = full_scale() ? 255 : 63;
  const Cfg cfgs[] = {{22, big}, {22, bigger}, {16, big}, {16, bigger}};

  // Cell 2i runs row i without CC, cell 2i + 1 with it.
  SweepRunner pool;
  CorePerfAggregator agg;
  const std::vector<WebSearchResult> results = pool.run(2 * std::size(cfgs), [&](std::size_t i) {
    SimWorld w(cell(cfgs[i / 2], i % 2 == 1));
    WebSearchResult r = read_websearch(w);
    agg.add(r.core);
    return r;
  });

  Table t({"Setting", "Loss rate w/o CC", "Loss rate w/ CC"});
  for (std::size_t i = 0; i < std::size(cfgs); ++i) {
    char lbl[48];
    std::snprintf(lbl, sizeof(lbl), "N=%d; %d to 1", cfgs[i].n, cfgs[i].fan_in);
    t.add_row({lbl, Table::num(results[2 * i].ho_loss_ratio * 100, 3) + "%",
               Table::num(results[2 * i + 1].ho_loss_ratio * 100, 3) + "%"});
  }
  t.print();
  report_sweep(pool, agg);

  std::printf("\nPaper shape: no HO loss with N=22 at any scale; only 0.16%% at 255-to-1\n"
              "with N=16 and no CC; zero everywhere once CC is enabled.\n");
  return 0;
}
