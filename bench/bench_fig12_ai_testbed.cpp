// Fig. 12: AI workloads on the 16-RNIC testbed — four groups of four RNICs
// each run an AllReduce / AllToAll; DCP pairs with adaptive routing, CX5
// with ECMP.  Reports the per-group job completion time.

#include <cstdio>

#include "harness/experiment.h"
#include "harness/report.h"

using namespace dcp;

namespace {

void run_kind(CollectiveKind kind, const char* label) {
  banner(std::string("Fig 12: ") + label + " on the testbed (4 groups x 4 RNICs)");
  WorldSpec s = experiment_world(Experiment::kCollective);
  s.topo = TopoKind::kTestbed;
  s.collective = kind;
  s.groups = 4;
  s.members = 4;
  s.collective_bytes = full_scale() ? 300ull * 1000 * 1000 : 24ull * 1024 * 1024;
  const auto run = [&s](SchemeKind k) {
    s.scheme = k;
    SimWorld w(s);
    return read_collectives(w);
  };
  const CollectiveResult cx5 = run(SchemeKind::kCx5);
  const CollectiveResult dcp = run(SchemeKind::kDcp);

  Table t({"Group", "CX5+ECMP JCT (ms)", "DCP+AR JCT (ms)", "Reduction"});
  double sum_cx5 = 0, sum_dcp = 0;
  for (std::size_t g = 0; g < cx5.jct_ms.size(); ++g) {
    sum_cx5 += cx5.jct_ms[g];
    sum_dcp += dcp.jct_ms[g];
    const double red = cx5.jct_ms[g] > 0 ? (1.0 - dcp.jct_ms[g] / cx5.jct_ms[g]) * 100.0 : 0.0;
    t.add_row({std::to_string(g + 1), Table::num(cx5.jct_ms[g], 2), Table::num(dcp.jct_ms[g], 2),
               Table::num(red, 0) + "%"});
  }
  t.print();
  std::printf("Average reduction: %.0f%%  (paper: up to 33%% AllReduce / 42%% AllToAll)\n",
              sum_cx5 > 0 ? (1.0 - sum_dcp / sum_cx5) * 100.0 : 0.0);
}

}  // namespace

int main() {
  run_kind(CollectiveKind::kAllReduce, "AllReduce");
  run_kind(CollectiveKind::kAllToAll, "AllToAll");
  return 0;
}
