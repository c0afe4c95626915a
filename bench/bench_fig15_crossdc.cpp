// Fig. 15: cross-DC scenarios — leaf-spine propagation raised to 500 us
// (100 km) and 5 ms (1000 km).  Lossless schemes (PFC, MP-RDMA) get their
// buffers enlarged to cover the PFC headroom (600 MB / 6 GB in the paper);
// IRN and DCP keep the 32 MB buffer.  Reports P50/P95 FCT slowdown.  Both
// distances x all four schemes fan out across the sweep pool (DCP_JOBS).

#include <cstdio>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"

using namespace dcp;

namespace {

constexpr SchemeKind kKinds[] = {SchemeKind::kPfc, SchemeKind::kIrn, SchemeKind::kMpRdma,
                                 SchemeKind::kDcp};

struct Distance {
  Time leaf_spine_delay;
  const char* label;
  std::uint64_t lossless_buffer;
};

// Non-const: percentile queries sort the underlying samples lazily.
void report_distance(const char* label, std::vector<WebSearchResult>& results) {
  for (double pct : {50.0, 95.0}) {
    char title[96];
    std::snprintf(title, sizeof(title), "Fig 15: cross-DC %s, P%.0f FCT slowdown", label, pct);
    banner(title);
    Table t({"Metric", "PFC", "IRN", "MP-RDMA", "DCP"});
    std::vector<std::string> row{"OVERALL"};
    for (auto& r : results) row.push_back(Table::num(r.background.overall().percentile(pct), 2));
    t.add_row(row);
    std::vector<std::string> done{"flows done"};
    for (auto& r : results) {
      done.push_back(std::to_string(r.flows_completed) + "/" + std::to_string(r.flows_total));
    }
    t.add_row(done);
    t.print();
  }
}

}  // namespace

int main() {
  const Distance distances[] = {
      {microseconds(500), "100 km (500 us leaf-spine)", 600ull * 1024 * 1024},
      {milliseconds(5), "1000 km (5 ms leaf-spine)", 6ull * 1024 * 1024 * 1024},
  };

  struct Trial {
    Distance d;
    SchemeKind k;
  };
  std::vector<Trial> trials;
  for (const Distance& d : distances) {
    for (SchemeKind k : kKinds) trials.push_back({d, k});
  }

  SweepRunner pool;
  CorePerfAggregator agg;
  std::vector<WebSearchResult> results = pool.run(trials.size(), [&](std::size_t i) {
    const Distance& d = trials[i].d;
    const SchemeKind k = trials[i].k;
    SchemeOptions opt;
    // Timers must scale with the fabric RTT.
    const Time rtt = 2 * (2 * microseconds(1) + 2 * d.leaf_spine_delay);
    opt.base_rtt = rtt;
    opt.rto_high = 2 * rtt + microseconds(320);
    opt.rto_low = rtt + microseconds(100);
    opt.dcp_msg_timeout = 2 * rtt + milliseconds(1);
    if (k == SchemeKind::kPfc || k == SchemeKind::kMpRdma) {
      opt.buffer_bytes = d.lossless_buffer;
    }

    WorldSpec s = experiment_world(Experiment::kWebSearch);
    s.scheme = k;
    s.opt = opt;
    // Higher offered load than intra-DC: the paper notes servers generate
    // more traffic cross-DC (larger BDP), making congestion more severe.
    s.load = 0.7;
    s.clos.leaf_spine_delay = d.leaf_spine_delay;
    if (full_scale()) {
      s.clos.spines = 16;
      s.clos.leaves = 16;
      s.clos.hosts_per_leaf = 16;
      s.poisson_flows = 5000;
    } else {
      s.clos.spines = 4;
      s.clos.leaves = 4;
      s.clos.hosts_per_leaf = 8;
      s.poisson_flows = 800;
    }
    s.max_time = seconds(30);
    SimWorld w(s);
    WebSearchResult r = read_websearch(w);
    agg.add(r.core);
    return r;
  });

  for (std::size_t d = 0; d < std::size(distances); ++d) {
    std::vector<WebSearchResult> slice(results.begin() + d * std::size(kKinds),
                                       results.begin() + (d + 1) * std::size(kKinds));
    report_distance(distances[d].label, slice);
  }
  report_sweep(pool, agg);

  std::printf("\nPaper shape: DCP's advantage grows with distance (larger BDP -> more\n"
              "severe congestion); lossless schemes oscillate because of the giant\n"
              "PFC-headroom buffers, and DCP keeps the 32 MB buffer throughout.\n");
  return 0;
}
