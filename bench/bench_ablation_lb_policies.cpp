// Ablation: load-balancing policy under DCP (the R2 claim).
//
// DCP is natively compatible with any packet-level LB.  This sweep runs
// the same WebSearch workload under ECMP (flow-level), flowlet switching
// (the "compromise" §2.2 mentions), uniform packet spraying and adaptive
// routing, plus IRN under the two packet-level policies for contrast:
// IRN's loss recovery misreads the reordering they create.

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

Row run(SchemeKind kind, LbPolicy lb) {
  WorldSpec s = experiment_world(Experiment::kWebSearch);
  s.scheme = kind;
  s.opt.lb = lb;
  s.clos.hosts_per_leaf = full_scale() ? 16 : 4;
  s.load = 0.5;
  s.poisson_flows = full_scale() ? 4000 : 400;
  s.max_time = seconds(5);
  SimWorld w(s);
  Row row{read_websearch(w)};
  for (const FlowRecord& rec : w.net().records()) {
    if (rec.complete()) row.retx += rec.sender.retransmitted_packets;
  }
  return row;
}

const char* lb_name(LbPolicy lb) {
  switch (lb) {
    case LbPolicy::kEcmp: return "ECMP";
    case LbPolicy::kFlowlet: return "Flowlet";
    case LbPolicy::kSpray: return "Spray";
    case LbPolicy::kAdaptive: return "Adaptive";
    case LbPolicy::kSourcePath: return "SourcePath";
  }
  return "?";
}

std::vector<std::string> table_row(const std::string& label, Row& row) {
  PercentileEstimator& fct = row.r.background.overall();
  return {label, Table::num(fct.percentile(50), 2), Table::num(fct.percentile(95), 2),
          std::to_string(row.retx),
          std::to_string(row.r.timeouts_background + row.r.timeouts_incast)};
}

}  // namespace

int main() {
  // One sweep covers both tables: 4 DCP policies then 3 IRN contrasts.
  struct Trial {
    SchemeKind k;
    LbPolicy lb;
  };
  const Trial trials[] = {
      {SchemeKind::kDcp, LbPolicy::kEcmp},  {SchemeKind::kDcp, LbPolicy::kFlowlet},
      {SchemeKind::kDcp, LbPolicy::kSpray}, {SchemeKind::kDcp, LbPolicy::kAdaptive},
      {SchemeKind::kIrn, LbPolicy::kEcmp},  {SchemeKind::kIrn, LbPolicy::kSpray},
      {SchemeKind::kIrn, LbPolicy::kAdaptive}};

  SweepRunner pool;
  CorePerfAggregator agg;
  std::vector<Row> rows = pool.run(std::size(trials), [&](std::size_t i) {
    Row row = run(trials[i].k, trials[i].lb);
    agg.add(row.r.core);
    return row;
  });

  banner("Ablation: DCP under every load-balancing policy (WebSearch 0.5)");
  Table t({"LB policy", "P50", "P95", "Retransmissions", "RTOs"});
  for (std::size_t i = 0; i < 4; ++i) t.add_row(table_row(lb_name(trials[i].lb), rows[i]));
  t.print();

  banner("Contrast: IRN under packet-level policies (spurious retransmissions)");
  Table c({"Scheme+LB", "P50", "P95", "Retransmissions", "RTOs"});
  for (std::size_t i = 4; i < std::size(trials); ++i) {
    c.add_row(table_row(std::string("IRN+") + lb_name(trials[i].lb), rows[i]));
  }
  c.print();
  report_sweep(pool, agg);

  std::printf("\nDCP's retransmission count is loss-only under every policy (R2); IRN\n"
              "retransmits spuriously as soon as the policy reorders packets, and the\n"
              "finer the balancing the more it pays.\n");
  return 0;
}
