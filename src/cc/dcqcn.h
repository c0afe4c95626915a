#pragma once
// DCQCN reaction point (sender-side rate machine), after Zhu et al.,
// SIGCOMM 2015.  The notification point (receiver-side CNP pacing) is the
// small CnpGenerator helper, embedded in receiver transports.

#include <algorithm>
#include <cstdint>

#include "cc/cc.h"
#include "sim/simulator.h"

namespace dcp {

class DcqcnRp final : public CongestionControl {
 public:
  static constexpr double kG = 1.0 / 16.0;  // alpha EWMA gain
  static constexpr Time kAlphaTimer = microseconds(55);
  static constexpr Time kRateIncreaseTimer = microseconds(55);
  static constexpr std::uint64_t kByteCounter = 1024 * 1024;  // 100G-scale: events come fast
  static constexpr double kRaiGbps = 1.0;      // additive increase step
  static constexpr double kRhaiGbps = 5.0;     // hyper increase step
  static constexpr int kFastRecoveryRounds = 5;  // F in the DCQCN paper
  static constexpr double kMinRateGbps = 0.1;

  DcqcnRp(Simulator& sim, Bandwidth line_rate, std::uint64_t window);

  Bandwidth rate() const override { return Bandwidth::gbps(rc_gbps_); }
  std::uint64_t window_bytes() const override { return window_; }

  void on_cnp() override;
  void on_ack(std::uint64_t newly_acked_bytes) override;
  void on_timeout() override;

  double alpha() const { return alpha_; }
  double current_rate_gbps() const { return rc_gbps_; }

  /// Rate machine scalars + the two deadline timers' heap arms.
  void checkpoint(StateIO& io) override;

 private:
  void cut_rate();
  void increase_event();
  void arm_alpha_timer();
  void arm_rate_timer();
  void on_alpha_timer();
  void on_rate_timer();

  Simulator& sim_;
  double line_gbps_;
  std::uint64_t window_;

  double rc_gbps_;       // current rate
  double rt_gbps_;       // target rate
  double alpha_ = 1.0;
  int rate_timer_events_ = 0;   // T in the paper
  int byte_counter_events_ = 0; // BC in the paper
  std::uint64_t bytes_since_event_ = 0;
  // Deadline-class: every CNP re-arms both timers, but they fire at most
  // once per period — the classic push-the-deadline-forward pattern.
  Timer alpha_timer_{sim_, [this] { on_alpha_timer(); }};
  Timer rate_timer_{sim_, [this] { on_rate_timer(); }};
};

/// Receiver-side CNP pacing: at most one CNP per flow per kMinInterval.
class CnpGenerator {
 public:
  static constexpr Time kMinInterval = microseconds(50);

  /// Called when an ECN-CE data packet arrives; true = emit a CNP now.
  bool should_send(Time now) {
    if (last_ == -1 || now - last_ >= kMinInterval) {
      last_ = now;
      return true;
    }
    return false;
  }

  /// Checkpoint hook: the pacing clock is the only runtime state.
  template <typename IO>
  void checkpoint(IO& io) {
    io.pod(last_);
  }

 private:
  Time last_ = -1;
};

}  // namespace dcp
