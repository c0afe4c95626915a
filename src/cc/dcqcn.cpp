#include "cc/dcqcn.h"

#include "sim/snapshot.h"

namespace dcp {

DcqcnRp::DcqcnRp(Simulator& sim, Bandwidth line_rate, std::uint64_t window)
    : sim_(sim),
      line_gbps_(line_rate.as_gbps()),
      window_(window),
      rc_gbps_(line_rate.as_gbps()),
      rt_gbps_(line_rate.as_gbps()) {}

void DcqcnRp::arm_alpha_timer() { alpha_timer_.arm_deadline(kAlphaTimer); }

void DcqcnRp::on_alpha_timer() {
  alpha_ *= (1.0 - kG);
  // Once alpha has decayed to irrelevance and the rate is restored there
  // is nothing left to do; stop so an idle simulation can drain.
  if (alpha_ > 1e-3 || rc_gbps_ < line_gbps_ * 0.999) arm_alpha_timer();
}

void DcqcnRp::arm_rate_timer() { rate_timer_.arm_deadline(kRateIncreaseTimer); }

void DcqcnRp::on_rate_timer() {
  ++rate_timer_events_;
  increase_event();
  if (rc_gbps_ < line_gbps_ * 0.999) arm_rate_timer();
}

void DcqcnRp::cut_rate() {
  rt_gbps_ = rc_gbps_;
  rc_gbps_ = std::max(kMinRateGbps, rc_gbps_ * (1.0 - alpha_ / 2.0));
  rate_timer_events_ = 0;
  byte_counter_events_ = 0;
  bytes_since_event_ = 0;
}

void DcqcnRp::on_cnp() {
  alpha_ = (1.0 - kG) * alpha_ + kG;
  cut_rate();
  arm_alpha_timer();
  arm_rate_timer();
}

void DcqcnRp::on_ack(std::uint64_t newly_acked_bytes) {
  // Byte-counter stage advance (paper: BC increments every B bytes sent; we
  // approximate with acked bytes, which tracks sent bytes at steady state).
  bytes_since_event_ += newly_acked_bytes;
  if (bytes_since_event_ >= kByteCounter) {
    bytes_since_event_ = 0;
    ++byte_counter_events_;
    increase_event();
  }
}

void DcqcnRp::increase_event() {
  const int stage = std::min(rate_timer_events_, byte_counter_events_);
  if (stage < kFastRecoveryRounds) {
    // Fast recovery: halve the gap toward the target rate.
  } else if (std::max(rate_timer_events_, byte_counter_events_) <
             2 * kFastRecoveryRounds) {
    rt_gbps_ = std::min(line_gbps_, rt_gbps_ + kRaiGbps);  // additive
  } else {
    rt_gbps_ = std::min(line_gbps_, rt_gbps_ + kRhaiGbps);  // hyper
  }
  rc_gbps_ = (rt_gbps_ + rc_gbps_) / 2.0;
}

void DcqcnRp::on_timeout() {
  // An RTO is a strong congestion signal; restart from target = current.
  alpha_ = 1.0;
  cut_rate();
  arm_alpha_timer();
  arm_rate_timer();
}

void DcqcnRp::checkpoint(StateIO& io) {
  io.label(0xDCC41u);
  io.pod(rc_gbps_);
  io.pod(rt_gbps_);
  io.pod(alpha_);
  io.pod(rate_timer_events_);
  io.pod(byte_counter_events_);
  io.pod(bytes_since_event_);
  io.timer(alpha_timer_);
  io.timer(rate_timer_);
}

}  // namespace dcp
