#include "stats/recovery_stats.h"

#include <algorithm>
#include <cstdio>

#include "host/host.h"

namespace dcp {

RecoveryStats::RecoveryStats(Network& net) : net_(net) {
  samples_.push_back(snapshot());  // t=0 anchor
  arm();
}

RecoveryStats::~RecoveryStats() { stop(); }

void RecoveryStats::stop() {
  stopped_ = true;
  if (ev_ != kInvalidEvent) {
    net_.sim().cancel(ev_);
    ev_ = kInvalidEvent;
  }
}

void RecoveryStats::arm() {
  ev_ = net_.sim().schedule(kSampleInterval, [this] {
    ev_ = kInvalidEvent;
    if (stopped_) return;
    samples_.push_back(snapshot());
    arm();
  });
}

RecoveryStats::Sample RecoveryStats::snapshot() const {
  Sample s;
  s.t = net_.sim().now();
  for (const auto& h : net_.hosts()) {
    for (const auto& [id, rx] : h->receivers()) s.rx_bytes += rx->stats().bytes_received;
    for (const auto& [id, tx] : h->senders()) {
      s.spurious += tx->stats().spurious_retransmissions;
      s.timeouts += tx->stats().timeouts;
    }
  }
  return s;
}

double RecoveryStats::goodput_gbps(std::size_t i) const {
  if (i == 0 || i >= samples_.size()) return 0.0;
  const Time dt = samples_[i].t - samples_[i - 1].t;
  if (dt <= 0) return 0.0;
  const std::uint64_t bytes = samples_[i].rx_bytes - samples_[i - 1].rx_bytes;
  return static_cast<double>(bytes) * 8.0 / (static_cast<double>(dt) / kSecond) / 1e9;
}

std::size_t RecoveryStats::begin_episode(std::string label, Time t) {
  Episode e;
  e.label = std::move(label);
  e.start = t;
  episodes_.push_back(std::move(e));
  return episodes_.size() - 1;
}

void RecoveryStats::end_episode(std::size_t idx, Time t) {
  if (idx < episodes_.size()) episodes_[idx].end = t;
}

void RecoveryStats::finalize() {
  stop();
  samples_.push_back(snapshot());  // final state

  // Pre-fault baseline window: up to 8 intervals immediately before onset.
  constexpr std::size_t kBaselineWindow = 8;

  for (Episode& e : episodes_) {
    // Locate the first sample at/after onset.
    std::size_t onset = 1;
    while (onset < samples_.size() && samples_[onset].t < e.start) ++onset;

    double base_sum = 0.0;
    std::size_t base_n = 0;
    for (std::size_t i = onset; i-- > 1 && base_n < kBaselineWindow;) {
      base_sum += goodput_gbps(i);
      base_n++;
    }
    if (base_n > 0) {
      e.baseline_gbps = base_sum / static_cast<double>(base_n);
    } else {
      // Fault at t=0: fall back to the peak over the whole run.
      for (std::size_t i = 1; i < samples_.size(); ++i) {
        e.baseline_gbps = std::max(e.baseline_gbps, goodput_gbps(i));
      }
    }

    const double bar = kRecoverThreshold * e.baseline_gbps;
    e.dip_gbps = e.baseline_gbps;
    std::size_t recover_i = 0;
    for (std::size_t i = std::max<std::size_t>(onset, 1); i < samples_.size(); ++i) {
      const double g = goodput_gbps(i);
      if (e.baseline_gbps <= 0.0 || g >= bar) {
        recover_i = i;
        e.recovered = true;
        break;
      }
      e.dip_gbps = std::min(e.dip_gbps, g);
      e.dip_duration += samples_[i].t - samples_[i - 1].t;
    }
    if (e.recovered) {
      e.time_to_recover = std::max<Time>(0, samples_[recover_i].t - e.start);
    }
    if (e.baseline_gbps > 0.0) {
      e.dip_frac = std::clamp(1.0 - e.dip_gbps / e.baseline_gbps, 0.0, 1.0);
    }

    // Counter deltas over [onset, recovery] (or to the end of the run).
    const Sample& from = samples_[onset > 0 ? onset - 1 : 0];
    const Sample& to = samples_[e.recovered ? recover_i : samples_.size() - 1];
    e.spurious_retx = to.spurious - from.spurious;
    e.timeouts = to.timeouts - from.timeouts;
  }
}

std::vector<std::string> RecoveryStats::table_headers() {
  return {"Episode", "Baseline Gbps", "Dip Gbps", "Dip %", "Dip dur us",
          "TTR us",  "Spurious",      "Timeouts"};
}

std::vector<std::vector<std::string>> RecoveryStats::table_rows(
    const std::vector<Episode>& episodes) {
  std::vector<std::vector<std::string>> rows;
  char buf[48];
  for (const Episode& e : episodes) {
    std::vector<std::string> row;
    row.push_back(e.label);
    std::snprintf(buf, sizeof(buf), "%.2f", e.baseline_gbps);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2f", e.dip_gbps);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.1f%%", e.dip_frac * 100.0);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.1f", to_us(e.dip_duration));
    row.push_back(buf);
    if (e.recovered) {
      std::snprintf(buf, sizeof(buf), "%.1f", to_us(e.time_to_recover));
      row.push_back(buf);
    } else {
      row.push_back("never");
    }
    row.push_back(std::to_string(e.spurious_retx));
    row.push_back(std::to_string(e.timeouts));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace dcp
