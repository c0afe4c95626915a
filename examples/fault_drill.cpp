// Fault drill example: one long cross-rack flow rides out a link flap and
// a burst of control-queue loss.  Shows how to express a FaultPlan in
// code, run it through the harness, and read the recovery metrics.
//
//   ./example_fault_drill            # DCP (default)
//   ./example_fault_drill irn        # any scheme name from the harness

#include <cstdio>
#include <string>

#include "harness/experiment.h"
#include "harness/report.h"

using namespace dcp;

int main(int argc, char** argv) {
  WorldSpec spec = experiment_world(Experiment::kFaultDrill);
  if (argc > 1) {
    const std::string s = argv[1];
    if (s == "irn") spec.scheme = SchemeKind::kIrn;
    else if (s == "gbn" || s == "cx5") spec.scheme = SchemeKind::kCx5;
    else if (s == "mprdma") spec.scheme = SchemeKind::kMpRdma;
    else if (s != "dcp") {
      std::fprintf(stderr, "unknown scheme '%s' (dcp|irn|gbn|mprdma)\n", s.c_str());
      return 1;
    }
  }

  // The plan: cut spine 0's first downlink for 300us mid-transfer (killing
  // the packets on the wire), then later drop 20% of control-queue packets
  // for 400us — the lossless-CP violation the paper's fallback handles.
  {
    FaultAction flap;
    flap.kind = FaultKind::kLinkFlap;
    flap.at = microseconds(200);
    flap.duration = microseconds(300);
    flap.sw = 0;
    flap.port = 0;
    flap.drop_in_flight = true;
    spec.faults.actions.push_back(flap);

    FaultAction ho;
    ho.kind = FaultKind::kHoLoss;
    ho.at = microseconds(800);
    ho.duration = microseconds(400);
    ho.rate = 0.2;
    spec.faults.actions.push_back(ho);
  }
  spec.flows[0].bytes = 8ull * 1000 * 1000;

  banner("Fault drill: link flap + control-queue loss");
  std::printf("plan:\n%s\n", spec.faults.to_config_text().c_str());

  SimWorld w(spec);
  const FlowResult r = read_flow(w);

  std::printf("scheme %s: goodput %.2f Gbps, completed=%s, elapsed %.1f us\n",
              scheme_name(spec.scheme), r.goodput_gbps, r.completed ? "yes" : "no",
              to_us(r.elapsed));
  std::printf("wire: dropped %llu  corrupted %llu  blackholed %llu  in-flight killed %llu\n",
              static_cast<unsigned long long>(r.wire.dropped),
              static_cast<unsigned long long>(r.wire.corrupted),
              static_cast<unsigned long long>(r.wire.blackholed),
              static_cast<unsigned long long>(r.wire.in_flight_dropped));

  Table t(RecoveryStats::table_headers());
  for (const auto& row : RecoveryStats::table_rows(r.fault_episodes)) t.add_row(row);
  t.print();
  return 0;
}
