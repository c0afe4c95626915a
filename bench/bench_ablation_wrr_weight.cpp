// Ablation: the WRR control-queue weight (paper §4.2).
//
// Sweeps the control:data scheduling weight under a heavy incast with a
// shallow trim threshold and reports (a) the HO loss ratio — the lossless
// control plane property — and (b) how much data throughput the control
// queue costs.  The paper's formula w = (N-1)/(r-N+1) sits at the knee:
// smaller weights start losing HO packets, larger ones only waste data
// bandwidth.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "switch/scheduler.h"

using namespace dcp;

namespace {

struct Result {
  WebSearchResult r;
  double worst_fct_ms = 0.0;
  std::uint64_t max_ctrl_queue = 0;  // peak control-queue backlog (bytes)
};

// `fan_in` hosts of a star send to the last one.
WorldSpec cell(double weight, int fan_in) {
  WorldSpec s = experiment_world(Experiment::kWebSearch);
  s.opt.control_weight = weight;
  s.opt.data_queue_bytes = 32 * 1024;  // shallow: trim storm guaranteed
  s.opt.buffer_bytes = 1024 * 1024;    // small buffer: a starved control queue
                                       // actually overflows instead of parking
  s.topo = TopoKind::kStar;
  s.star_hosts = fan_in + 1;
  s.poisson_flows = 0;
  for (int i = 0; i < fan_in; ++i) {
    s.flows.push_back({i, fan_in, 4 * 1024 * 1024, 512 * 1024});  // sustained pressure
  }
  s.max_time = seconds(10);
  return s;
}

Result run(double weight, int fan_in) {
  SimWorld w(cell(weight, fan_in));
  Result res{read_websearch(w)};
  for (const auto& swp : w.net().switches()) {
    for (std::uint32_t pi = 0; pi < swp->num_ports(); ++pi) {
      res.max_ctrl_queue = std::max(
          res.max_ctrl_queue,
          swp->port(pi).queue(static_cast<int>(QueueClass::kControl)).max_bytes_seen());
    }
  }
  for (const FlowRecord& rec : w.net().records()) {
    if (rec.complete()) res.worst_fct_ms = std::max(res.worst_fct_ms, to_ms(rec.fct()));
  }
  return res;
}

}  // namespace

int main() {
  const int fan_in = full_scale() ? 64 : 16;
  banner("Ablation: WRR control-queue weight (" + std::to_string(fan_in) + "-to-1 incast)");

  const double r_ratio = 1073.0 / 57.0;
  const double formula = wrr_control_weight(fan_in + 1, r_ratio, 4.0);

  const double weights[] = {0.01, 0.05, 0.25, 1.0, formula, 16.0};
  SweepRunner pool;
  CorePerfAggregator agg;
  const std::vector<Result> results = pool.run(std::size(weights), [&](std::size_t i) {
    Result res = run(weights[i], fan_in);
    agg.add(res.r.core);
    return res;
  });

  Table t({"Weight (ctl:data)", "HO loss", "Peak ctl queue", "Trims", "Worst FCT (ms)",
           "All flows done"});
  for (std::size_t i = 0; i < std::size(weights); ++i) {
    const double w = weights[i];
    const Result& res = results[i];
    char lbl[32];
    std::snprintf(lbl, sizeof(lbl), w == formula ? "%.2f (formula)" : "%.2f", w);
    t.add_row({lbl, Table::num(res.r.ho_loss_ratio * 100, 3) + "%",
               Table::bytes_human(res.max_ctrl_queue), std::to_string(res.r.sw.trimmed),
               Table::num(res.worst_fct_ms, 2),
               res.r.flows_completed == res.r.flows_total ? "yes" : "NO"});
  }
  t.print();
  report_sweep(pool, agg);

  std::printf("\nThe formula weight keeps the control backlog to a couple of HO packets;\n"
              "small weights let HOs pool (throttling recovery - self-limiting at this\n"
              "fan-in).  Actual HO *loss* requires the shared buffer to fill with HOs,\n"
              "i.e. a ~200-to-1 first-window burst: exactly the paper's 255-to-1\n"
              "Table 5 cell.  Above the formula, nothing changes: the queue is short.\n");
  return 0;
}
