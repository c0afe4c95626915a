#pragma once
// TIMELY (Mittal et al., SIGCOMM 2015): RTT-gradient congestion control.
//
// Included to exercise the paper's claim that DCP's reliability machinery
// is compatible with *any* CC scheme (§3, §7 "Congestion Control for
// DCP"): TIMELY is delay-based and needs no switch support at all (not
// even ECN) — ACKs echo the data packet's transmit timestamp and the
// sender adjusts its rate from the smoothed RTT gradient.

#include <algorithm>

#include "cc/cc.h"

namespace dcp {

class TimelyCc final : public CongestionControl {
 public:
  static constexpr Time kTLow = microseconds(30);    // below: additive increase
  static constexpr Time kTHigh = microseconds(150);  // above: multiplicative decrease
  static constexpr Time kMinRtt = microseconds(8);
  static constexpr double kEwmaAlpha = 0.46;  // gradient smoothing
  static constexpr double kBeta = 0.8;        // multiplicative decrease factor
  static constexpr double kRaiGbps = 1.0;     // additive increase step
  static constexpr int kHaiThreshold = 5;     // negative-gradient streak for HAI mode
  static constexpr double kMinRateGbps = 0.5;

  TimelyCc(Bandwidth line_rate, std::uint64_t window)
      : line_gbps_(line_rate.as_gbps()),
        window_(window),
        rate_gbps_(line_rate.as_gbps()) {}

  Bandwidth rate() const override { return Bandwidth::gbps(rate_gbps_); }
  std::uint64_t window_bytes() const override { return window_; }

  void on_rtt_sample(Time rtt) override;
  void on_timeout() override {
    rate_gbps_ = std::max(kMinRateGbps, rate_gbps_ * kBeta);
  }

  double current_rate_gbps() const { return rate_gbps_; }
  double normalized_gradient() const { return gradient_; }

  /// Rate/gradient scalars (no timers).
  void checkpoint(StateIO& io) override;

 private:
  double line_gbps_;
  std::uint64_t window_;
  double rate_gbps_;
  Time prev_rtt_ = -1;
  double rtt_diff_ = 0.0;   // EWMA of consecutive RTT differences (us)
  double gradient_ = 0.0;   // rtt_diff / min_rtt
  int neg_gradient_streak_ = 0;
};

}  // namespace dcp
