// Table 5: robustness of the lossless control plane — the ratio of lost
// header-only packets under severe incast, with the WRR weight set from
// w = (N-1)/(r-N+1) for two values of the handled scale N, with and
// without DCQCN.  A shallow trim threshold maximizes trimming pressure.

#include <cstdio>

#include "harness/experiment.h"
#include "harness/report.h"
#include "switch/scheduler.h"

using namespace dcp;

namespace {

double run_one(int fan_in, int n_scale, bool with_cc) {
  Simulator sim;
  Logger log(LogLevel::kError);
  Network net(sim, log);

  SchemeOptions opt;
  opt.with_cc = with_cc;
  SchemeSetup setup = make_scheme(SchemeKind::kDcp, opt);
  const double r = 1073.0 / 57.0;  // data : HO wire-size ratio
  setup.sw.control_weight = wrr_control_weight(n_scale, r, /*fallback=*/1.0);
  setup.sw.trim_threshold_bytes = 64 * 1024;  // stress the control plane
  if (with_cc) {
    setup.sw.ecn_kmin_bytes = setup.sw.trim_threshold_bytes / 5;
    setup.sw.ecn_kmax_bytes = setup.sw.trim_threshold_bytes * 4 / 5;
  }

  ClosParams clos;
  clos.spines = 4;
  clos.leaves = 4;
  clos.hosts_per_leaf = full_scale() ? 16 : 8;
  clos.sw = setup.sw;
  ClosTopology topo = build_clos(net, clos);
  apply_scheme(net, setup);

  // Background WebSearch at 0.3 plus one big synchronized incast.
  FlowGenParams fg;
  fg.load = 0.3;
  fg.num_flows = full_scale() ? 2000 : 300;
  fg.msg_bytes = kFlowMsgBytes;
  generate_poisson_flows(net, topo.hosts, SizeDist::websearch(), fg);

  IncastParams inc;
  inc.fan_in = std::min<int>(fan_in, static_cast<int>(topo.hosts.size()) - 1);
  inc.bursts = 4;
  inc.load = 0.5;
  inc.bytes_per_sender = 64 * 1024;
  inc.msg_bytes = kFlowMsgBytes;
  generate_incast(net, topo.hosts, inc);

  net.run_until_done(seconds(10));
  const auto sw = net.total_switch_stats();
  const std::uint64_t total = sw.ho_seen + sw.dropped_ho;
  return total == 0 ? 0.0 : static_cast<double>(sw.dropped_ho) / static_cast<double>(total);
}

}  // namespace

int main() {
  banner("Table 5: HO packet loss ratio under severe incast");

  const int big = full_scale() ? 128 : 31;
  const int bigger = full_scale() ? 255 : 63;

  Table t({"Setting", "Loss rate w/o CC", "Loss rate w/ CC"});
  struct Cfg {
    int n;
    int fan_in;
  };
  for (const Cfg c : {Cfg{22, big}, Cfg{22, bigger}, Cfg{16, big}, Cfg{16, bigger}}) {
    char lbl[48];
    std::snprintf(lbl, sizeof(lbl), "N=%d; %d to 1", c.n, c.fan_in);
    const double no_cc = run_one(c.fan_in, c.n, false);
    const double cc = run_one(c.fan_in, c.n, true);
    t.add_row({lbl, Table::num(no_cc * 100, 3) + "%", Table::num(cc * 100, 3) + "%"});
  }
  t.print();

  std::printf("\nPaper shape: no HO loss with N=22 at any scale; only 0.16%% at 255-to-1\n"
              "with N=16 and no CC; zero everywhere once CC is enabled.\n");
  return 0;
}
