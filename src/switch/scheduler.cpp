#include "switch/scheduler.h"

namespace dcp {

double wrr_control_weight(int incast_scale_n, double size_ratio_r, double fallback) {
  const double denom = size_ratio_r - static_cast<double>(incast_scale_n) + 1.0;
  if (denom <= 0.0) return fallback;
  const double w = (static_cast<double>(incast_scale_n) - 1.0) / denom;
  return w > 0.0 ? w : fallback;
}

}  // namespace dcp
