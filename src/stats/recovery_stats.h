#pragma once
// RecoveryStats: per-fault-episode recovery metrics.
//
// The collector samples application-level goodput (unique bytes landed at
// receiver transports) and the fleet-wide retransmission counters on a
// fixed simulated-time cadence.  Fault episodes are registered generically
// by whoever injects the faults (see FaultInjector::on_fault_start); after
// the run, finalize() turns the sample series into per-episode metrics:
//
//   time_to_recover   first time after fault onset that goodput is back at
//                     >= kRecoverThreshold x the pre-fault baseline
//   dip_frac          depth of the goodput dip, 1 - min/baseline in [0,1]
//   dip_duration      total sampled time below the recovery threshold
//   spurious_retx     spurious retransmissions attributable to the episode
//   timeouts          retry-counter escalations (coarse timeout firings)
//
// Sampling is read-only — it never mutates simulation state — so attaching
// a collector does not perturb results.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"
#include "topo/network.h"

namespace dcp {

class RecoveryStats {
 public:
  struct Episode {
    std::string label;
    Time start = 0;
    Time end = -1;  // fault reverted; -1 = active until the end of the run
    // Computed by finalize():
    double baseline_gbps = 0.0;  // mean goodput over the pre-fault window
    double dip_gbps = 0.0;       // lowest goodput sample before recovery
    double dip_frac = 0.0;       // 1 - dip/baseline, clamped to [0, 1]
    Time dip_duration = 0;       // sampled time spent below threshold
    Time time_to_recover = -1;   // recover instant - start; -1 = never
    bool recovered = false;
    std::uint64_t spurious_retx = 0;
    std::uint64_t timeouts = 0;
  };

  static constexpr Time kSampleInterval = microseconds(20);
  static constexpr double kRecoverThreshold = 0.9;  // recovered: goodput back at 0.9 x baseline

  /// Starts sampling every kSampleInterval.
  explicit RecoveryStats(Network& net);
  ~RecoveryStats();
  RecoveryStats(const RecoveryStats&) = delete;
  RecoveryStats& operator=(const RecoveryStats&) = delete;

  /// Registers the onset of fault episode; returns its index.
  std::size_t begin_episode(std::string label, Time t);
  /// Marks episode `idx` reverted at `t`.
  void end_episode(std::size_t idx, Time t);

  void stop();
  /// Stops sampling and computes per-episode metrics; call after the run.
  void finalize();

  const std::vector<Episode>& episodes() const { return episodes_; }

  /// Table headers/rows for the harness report (one row per episode).
  /// Static so results that carry copied episodes can render them too.
  static std::vector<std::string> table_headers();
  static std::vector<std::vector<std::string>> table_rows(const std::vector<Episode>& episodes);

 private:
  struct Sample {
    Time t = 0;
    std::uint64_t rx_bytes = 0;   // cumulative unique receiver bytes
    std::uint64_t spurious = 0;   // cumulative spurious retransmissions
    std::uint64_t timeouts = 0;   // cumulative sender timeouts
  };

  void arm();
  Sample snapshot() const;
  double goodput_gbps(std::size_t i) const;  // between samples i-1 and i

  Network& net_;
  EventId ev_ = kInvalidEvent;
  bool stopped_ = false;
  std::vector<Sample> samples_;
  std::vector<Episode> episodes_;
};

}  // namespace dcp
