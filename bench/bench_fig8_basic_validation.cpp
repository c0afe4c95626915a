// Fig. 8: basic validation of the DCP-RNIC prototype — throughput of a
// long-running flow of 512 KB messages and latency of a 64 B message, for
// DCP, RNIC-GBN and (software) TCP over two directly cabled 100G hosts.

#include <cstdio>

#include "harness/experiment.h"
#include "harness/report.h"

using namespace dcp;

namespace {

// One flow of `bytes` in `msg_bytes` messages (0: one message) across
// the cable.
FlowResult run(SchemeKind kind, std::uint64_t bytes, std::uint64_t msg_bytes) {
  WorldSpec s = experiment_world(Experiment::kLongFlow);
  s.topo = TopoKind::kBackToBack;
  s.scheme = kind;
  s.flows[0].bytes = bytes;
  s.flows[0].msg_bytes = msg_bytes;
  s.max_time = seconds(1);
  SimWorld w(s);
  return read_flow(w);
}

}  // namespace

int main() {
  banner("Fig 8: basic validation — 2 hosts back-to-back, 100G");

  Table t({"Scheme", "Throughput (Gbps)", "64B latency (us)"});
  for (SchemeKind k : {SchemeKind::kDcp, SchemeKind::kCx5, SchemeKind::kTcp}) {
    const char* label = k == SchemeKind::kCx5 ? "RNIC-GBN" : scheme_name(k);
    // Throughput: 64 x 512 KB messages back to back.  Latency: one 64 B
    // message, measured sender-side (post -> completion).
    const FlowResult tput = run(k, 64ull * 512 * 1024, 512 * 1024);
    const FlowResult lat = run(k, 64, 0);
    t.add_row({label, Table::num(tput.goodput_gbps, 1), Table::num(to_us(lat.elapsed), 2)});
  }
  t.print();

  std::printf("\nPaper shape: DCP ~ RNIC-GBN (~97 Gbps, ~2 us), both far ahead of TCP\n"
              "(tens of Gbps, tens of us) — hardware offload is preserved.\n");
  return 0;
}
