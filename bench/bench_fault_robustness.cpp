// Scheme robustness under injected faults: every fault kind x intensity x
// scheme cell runs one fault drill (a long cross-rack flow on a small
// leaf-spine fabric, see run_fault_drill) through the sweep pool and
// reports goodput, time-to-recover, goodput-dip depth and spurious
// retransmissions per cell.
//
// The zero-intensity column doubles as a regression check: an all-no-op
// FaultPlan must leave the run bit-identical to a fault-free baseline
// (the injector arms nothing), and the bench verifies that digest
// equality for every scheme before printing the table.
//
// `--smoke` shrinks the matrix to a single-trial CI smoke run.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"

using namespace dcp;

namespace {

struct Intensity {
  const char* name;
  double rate;    // drop / corrupt / ho_loss
  Time dur;       // link_flap / blackhole window (0 = no-op)
  double frac;    // buffer_shrink remaining capacity (1 = no-op)
};

// Faults fire at 200us, after the flow has ramped, and (for windowed
// kinds) revert 400us later.
constexpr Time kOnset = microseconds(200);
constexpr Time kWindow = microseconds(400);

FaultPlan plan_for(FaultKind k, const Intensity& in) {
  FaultAction a;
  a.kind = k;
  a.at = kOnset;
  switch (k) {
    case FaultKind::kLinkFlap:
      a.duration = in.dur;
      a.sw = 0;  // spine 0 (switches() lists spines first)
      a.port = 0;
      a.drop_in_flight = true;
      break;
    case FaultKind::kDrop:
    case FaultKind::kCorrupt:
      a.duration = kWindow;
      a.rate = in.rate;
      a.sw = 0;
      break;
    case FaultKind::kHoLoss:
      a.duration = kWindow;
      a.rate = in.rate;
      break;
    case FaultKind::kBufferShrink:
      a.duration = kWindow;
      a.frac = in.frac;
      break;
    case FaultKind::kBlackhole:
      a.duration = in.dur;
      a.sw = 0;
      a.port = 0;
      break;
  }
  FaultPlan plan;
  plan.actions.push_back(a);
  return plan;
}

// Everything the run measured, bit-exact (%a prints doubles losslessly) —
// two runs with equal digests took the same trajectory.
std::string digest(const FlowResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%d|%lld|%a|%llu|%llu|%llu|%llu|%llu|%llu|%llu",
                r.completed ? 1 : 0, static_cast<long long>(r.elapsed), r.goodput_gbps,
                static_cast<unsigned long long>(r.receiver.bytes_received),
                static_cast<unsigned long long>(r.sender.data_packets_sent),
                static_cast<unsigned long long>(r.sender.retransmitted_packets),
                static_cast<unsigned long long>(r.sender.spurious_retransmissions),
                static_cast<unsigned long long>(r.sender.timeouts),
                static_cast<unsigned long long>(r.sw.dropped_data),
                static_cast<unsigned long long>(r.sw.trimmed));
  return buf;
}

std::string cell_text(const FlowResult& r) {
  char buf[96];
  if (r.fault_episodes.empty()) {
    std::snprintf(buf, sizeof(buf), "%.2f (baseline)", r.goodput_gbps);
    return buf;
  }
  const RecoveryStats::Episode& e = r.fault_episodes.front();
  if (e.recovered) {
    std::snprintf(buf, sizeof(buf), "%.2f ttr=%.0fus dip=%.0f%% sp=%llu", r.goodput_gbps,
                  to_us(e.time_to_recover), e.dip_frac * 100.0,
                  static_cast<unsigned long long>(e.spurious_retx));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f ttr=never dip=%.0f%% sp=%llu", r.goodput_gbps,
                  e.dip_frac * 100.0, static_cast<unsigned long long>(e.spurious_retx));
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  banner(smoke ? "Fault robustness (smoke)" : "Fault robustness: fault x intensity x scheme");

  std::vector<FaultKind> kinds = {FaultKind::kLinkFlap,     FaultKind::kDrop,
                                  FaultKind::kCorrupt,      FaultKind::kHoLoss,
                                  FaultKind::kBufferShrink, FaultKind::kBlackhole};
  std::vector<Intensity> intensities = {
      {"zero", 0.0, 0, 1.0},
      {"low", 0.005, microseconds(100), 0.5},
      {"high", 0.05, microseconds(400), 0.05},
  };
  std::vector<SchemeKind> schemes = {SchemeKind::kDcp, SchemeKind::kIrn, SchemeKind::kCx5,
                                     SchemeKind::kMpRdma, SchemeKind::kFec};
  if (smoke) {
    kinds = {FaultKind::kDrop, FaultKind::kHoLoss};
    intensities = {{"zero", 0.0, 0, 1.0}, {"high", 0.05, microseconds(400), 0.05}};
    schemes = {SchemeKind::kDcp};
  }
  // ho_loss needs a far higher rate to matter: HO packets are a sliver of
  // traffic, and the control queue is small.
  auto effective = [&](FaultKind k, Intensity in) {
    if (k == FaultKind::kHoLoss && in.rate > 0.0) in.rate = in.rate >= 0.05 ? 0.5 : 0.1;
    return in;
  };

  WorldSpec base = experiment_world(Experiment::kFaultDrill);
  base.flows[0].bytes = smoke ? 2ull * 1000 * 1000 : (full_scale() ? 32ull : 8ull) * 1000 * 1000;
  base.max_time = milliseconds(smoke ? 20 : 100);

  struct Cell {
    FaultKind kind;
    std::size_t intensity;
    std::size_t scheme;
    bool baseline = false;  // fault-free reference run for the digest check
  };
  std::vector<Cell> cells;
  for (FaultKind k : kinds) {
    for (std::size_t in = 0; in < intensities.size(); ++in) {
      for (std::size_t s = 0; s < schemes.size(); ++s) cells.push_back({k, in, s, false});
    }
  }
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    cells.push_back({FaultKind::kDrop, 0, s, true});
  }

  SweepRunner pool;
  CorePerfAggregator agg;
  const std::vector<FlowResult> results =
      pool.run(cells.size(), [&](std::size_t i) {
        WorldSpec s = base;
        s.scheme = schemes[cells[i].scheme];
        if (!cells[i].baseline) {
          s.faults = plan_for(cells[i].kind, effective(cells[i].kind, intensities[cells[i].intensity]));
        }
        SimWorld w(s);
        FlowResult r = read_flow(w);
        agg.add(r.core);
        return r;
      });

  // Zero-intensity cells must be bit-identical to the fault-free baseline.
  std::vector<std::string> baseline_digest(schemes.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].baseline) baseline_digest[cells[i].scheme] = digest(results[i]);
  }
  bool zero_ok = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].baseline || intensities[cells[i].intensity].rate != 0.0 ||
        intensities[cells[i].intensity].dur != 0 || intensities[cells[i].intensity].frac != 1.0) {
      continue;
    }
    if (digest(results[i]) != baseline_digest[cells[i].scheme]) {
      zero_ok = false;
      std::printf("ZERO-INTENSITY MISMATCH: %s under no-op %s plan diverged from baseline\n",
                  scheme_name(schemes[cells[i].scheme]), fault_kind_name(cells[i].kind));
    }
  }

  std::vector<std::string> headers = {"Fault", "Intensity"};
  for (SchemeKind s : schemes) headers.push_back(scheme_name(s));
  Table t(headers);
  std::size_t idx = 0;
  for (FaultKind k : kinds) {
    for (std::size_t in = 0; in < intensities.size(); ++in) {
      std::vector<std::string> row = {fault_kind_name(k), intensities[in].name};
      for (std::size_t s = 0; s < schemes.size(); ++s) row.push_back(cell_text(results[idx++]));
      t.add_row(row);
    }
  }
  t.print();
  report_sweep(pool, agg);

  std::printf("\nzero-intensity == fault-free baseline: %s\n", zero_ok ? "PASS" : "FAIL");
  std::printf("Cells: goodput Gbps, ttr = time to recover >=90%% of pre-fault goodput,\n"
              "dip = goodput dip depth, sp = spurious retransmissions in the episode.\n");
  return zero_ok ? 0 : 1;
}
