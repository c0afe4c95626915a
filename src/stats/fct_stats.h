#pragma once
// Flow-completion-time aggregation: slowdown computation and per-size
// bucketing, matching how the paper reports Figs. 1, 13, 15, 16.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats/percentile.h"
#include "topo/network.h"

namespace dcp {

/// The paper's flow-size classes (Fig. 1b).
enum class SizeClass { kSmall, kMedium, kLarge };  // <50KB, 50KB..2MB, >2MB
SizeClass size_class_of(std::uint64_t bytes);
const char* size_class_name(SizeClass c);

struct FctBucket {
  std::uint64_t lo = 0;  // inclusive
  std::uint64_t hi = 0;  // exclusive
  PercentileEstimator slowdown;
};

class FctStats {
 public:
  /// `edges` are bucket upper bounds in bytes (ascending); a final
  /// catch-all bucket is added automatically.
  explicit FctStats(std::vector<std::uint64_t> edges);
  FctStats() : FctStats(default_edges()) {}

  /// The paper's Fig.13 x-axis (KB sizes from the WebSearch CDF).
  static std::vector<std::uint64_t> default_edges();

  void add(const FlowRecord& rec, Time ideal_fct);

  std::size_t flows() const { return count_; }
  PercentileEstimator& overall() { return overall_; }

  /// Percentile of slowdown per bucket; rows with no samples report 0.
  std::vector<double> per_bucket_percentile(double p);
  std::vector<std::uint64_t> bucket_edges() const;

 private:
  std::vector<FctBucket> buckets_;
  PercentileEstimator overall_;
  std::size_t count_ = 0;
};

}  // namespace dcp
