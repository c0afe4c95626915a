// Fig. 18 (beyond the paper): WAN cross-region goodput — RTT x loss-rate x
// scheme, with the FEC tier swept across (k, m) geometries.  The scenario
// the erasure-coded tier is built for: ms-scale RTTs and percent-scale
// ambient loss, where every retransmission-based scheme pays at least one
// extra round trip per loss while FEC repairs up to m losses per group from
// parity already in flight.  All points fan out across the sweep pool
// (DCP_JOBS); `--smoke` runs a single small point per scheme for CI.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"

using namespace dcp;

namespace {

struct SchemeAxis {
  SchemeKind kind;
  std::uint32_t fec_k;  // ignored unless kind == kFec
  std::uint32_t fec_m;
  const char* label;
};

constexpr SchemeAxis kSchemes[] = {
    {SchemeKind::kDcp, 0, 0, "DCP"},
    {SchemeKind::kIrn, 0, 0, "IRN"},
    {SchemeKind::kCx5, 0, 0, "GBN"},
    {SchemeKind::kFec, 4, 1, "FEC(4,1)"},
    {SchemeKind::kFec, 8, 2, "FEC(8,2)"},
    {SchemeKind::kFec, 16, 4, "FEC(16,4)"},
};

bool is_retrans_only(const SchemeAxis& s) { return s.kind != SchemeKind::kFec; }

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::vector<Time> delays = {milliseconds(5), milliseconds(25)};  // one-way; RTT = ~2x
  std::vector<double> losses = {0.0, 0.01, 0.05};
  std::uint64_t flow_bytes = 25ull * 1000 * 1000;
  Time max_time = seconds(30);
  if (smoke) {
    delays = {milliseconds(5)};
    losses = {0.05};
    flow_bytes = 2ull * 1000 * 1000;
    max_time = seconds(10);
  }

  struct Trial {
    Time delay;
    double loss;
    SchemeAxis scheme;
  };
  std::vector<Trial> trials;
  for (Time d : delays) {
    for (double l : losses) {
      for (const SchemeAxis& s : kSchemes) trials.push_back({d, l, s});
    }
  }

  banner(smoke ? "Fig 18: WAN cross-region goodput (smoke)"
               : "Fig 18: WAN cross-region goodput — RTT x loss x scheme");

  SweepRunner pool;
  CorePerfAggregator agg;
  std::vector<FlowResult> results = pool.run(trials.size(), [&](std::size_t i) {
    const Trial& t = trials[i];
    WorldSpec s = experiment_world(Experiment::kWanFlow);
    s.scheme = t.scheme.kind;
    s.opt.fec_k = t.scheme.fec_k > 0 ? t.scheme.fec_k : s.opt.fec_k;
    s.opt.fec_m = t.scheme.fec_m > 0 ? t.scheme.fec_m : s.opt.fec_m;
    s.wan.regions = 3;
    s.wan.hosts_per_region = smoke ? 2 : 4;
    s.wan.wan_delay = t.delay;
    s.wan.wan_loss_rate = t.loss;
    s.flows[0].bytes = flow_bytes;
    s.max_time = max_time;
    s.seed = 7 + i;
    SimWorld w(s);
    FlowResult r = read_flow(w);
    agg.add(r.core);
    return r;
  });

  const std::size_t per_point = std::size(kSchemes);
  std::size_t idx = 0;
  bool accept_checked = false;
  bool accept_ok = true;
  double accept_ratio = 0.0;
  for (Time d : delays) {
    char title[96];
    std::snprintf(title, sizeof(title), "WAN one-way delay %.0f ms (RTT ~%.0f ms)", to_us(d) / 1e3,
                  2 * to_us(d) / 1e3);
    banner(title);
    Table t({"Loss", "Scheme", "Goodput Gbps", "Done", "Wire drops", "Retx", "Parity",
             "Decode-rec", "NACK-rec"});
    for (double l : losses) {
      double best_fec = 0.0;
      double best_retrans = 0.0;
      for (std::size_t s = 0; s < per_point; ++s) {
        const FlowResult& r = results[idx + s];
        t.add_row({Table::num(l * 100, 1) + "%", kSchemes[s].label, Table::num(r.goodput_gbps, 3),
                   r.completed ? "yes" : "no", std::to_string(r.wire_dropped),
                   std::to_string(r.sender.retransmitted_packets),
                   std::to_string(r.sender.parity_packets_sent),
                   std::to_string(r.receiver.decode_recovered_packets),
                   std::to_string(r.receiver.nack_recovered_packets)});
        if (is_retrans_only(kSchemes[s])) {
          best_retrans = std::max(best_retrans, r.goodput_gbps);
        } else {
          best_fec = std::max(best_fec, r.goodput_gbps);
        }
      }
      // The acceptance point: >= 5% loss at >= 50 ms RTT, FEC must sustain
      // at least 2x the best retransmission-only scheme.
      if (l >= 0.05 && 2 * d >= milliseconds(50)) {
        accept_checked = true;
        accept_ratio = best_retrans > 0 ? best_fec / best_retrans : best_fec;
        if (best_fec < 2.0 * best_retrans) accept_ok = false;
      }
      idx += per_point;
    }
    t.print();
  }
  report_sweep(pool, agg);

  if (accept_checked) {
    std::printf("\nAcceptance (>=5%% loss, >=50 ms RTT): FEC / best-retransmission goodput "
                "= %.2fx (target >= 2x) — %s\n",
                accept_ratio, accept_ok ? "PASS" : "FAIL");
  }
  std::printf("\nShape: retransmission-only schemes pay >= 1 extra RTT per lost packet, so\n"
              "goodput collapses as loss x RTT grows; FEC repairs up to m losses per k-chunk\n"
              "group from parity already on the wire and only falls back to NACK repair for\n"
              "groups losing more than m chunks.\n");
  return accept_checked && !accept_ok ? 1 : 0;
}
