#include "cc/timely.h"

#include "sim/snapshot.h"

namespace dcp {

void TimelyCc::on_rtt_sample(Time rtt) {
  if (prev_rtt_ < 0) {
    prev_rtt_ = rtt;
    return;
  }
  const double new_diff_us = to_us(rtt - prev_rtt_);
  prev_rtt_ = rtt;
  rtt_diff_ = (1.0 - kEwmaAlpha) * rtt_diff_ + kEwmaAlpha * new_diff_us;
  gradient_ = rtt_diff_ / to_us(kMinRtt);

  if (rtt < kTLow) {
    // Far below target: additive increase regardless of gradient.
    rate_gbps_ = std::min(line_gbps_, rate_gbps_ + kRaiGbps);
    ++neg_gradient_streak_;
    return;
  }
  if (rtt > kTHigh) {
    // Way above target: multiplicative decrease bounded by T_high/rtt.
    const double factor =
        std::max(kBeta, 1.0 - kBeta * (1.0 - to_us(kTHigh) / to_us(rtt)));
    rate_gbps_ = std::max(kMinRateGbps, rate_gbps_ * factor);
    neg_gradient_streak_ = 0;
    return;
  }
  if (gradient_ <= 0) {
    ++neg_gradient_streak_;
    const double step =
        neg_gradient_streak_ >= kHaiThreshold ? 5.0 * kRaiGbps : kRaiGbps;
    rate_gbps_ = std::min(line_gbps_, rate_gbps_ + step);
  } else {
    neg_gradient_streak_ = 0;
    rate_gbps_ =
        std::max(kMinRateGbps, rate_gbps_ * (1.0 - kBeta * std::min(gradient_, 1.0)));
  }
}

void TimelyCc::checkpoint(StateIO& io) {
  io.label(0x713E1Bu);
  io.pod(rate_gbps_);
  io.pod(prev_rtt_);
  io.pod(rtt_diff_);
  io.pod(gradient_);
  io.pod(neg_gradient_streak_);
}

}  // namespace dcp
