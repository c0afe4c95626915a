#pragma once
// Egress scheduling policies for switch ports.
//
// DCP-Switch uses weighted round-robin between the control queue (trimmed
// header-only packets) and the data queue, with the control queue weighted
// so that its drain rate covers the worst-case trim rate (paper §4.2):
//
//     w = (N - 1) / (r - N + 1)
//
// where N is the incast scale the switch must absorb and 1:r is the
// HO-to-data packet size ratio.  The scheduled byte-volume ratio between
// control and data queues is then w : 1.

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/port.h"

namespace dcp {

/// Byte-deficit weighted round robin across the queue classes.
class DwrrPolicy final : public SchedulerPolicy {
 public:
  /// `weights[i]` is the relative byte share of class i.  They may be
  /// fractional (e.g. control weight 3.75 vs data weight 1).
  explicit DwrrPolicy(std::array<double, kNumQueueClasses> weights,
                      std::uint32_t quantum_bytes = 2048);

  Kind kind() const override { return Kind::kDwrr; }

  // select/charge bodies live inline here: Port::try_transmit resolves the
  // policy to this final type via the Kind tag and calls them statically,
  // so the whole DWRR decision compiles into the transmit path.
  int select(const std::vector<FifoQueue>& queues,
             const std::array<bool, kNumQueueClasses>& paused) {
    // Fast path: the class holding the round is still eligible and its
    // deficit covers its head-of-line packet.  This is exactly the loop's
    // first iteration (which performs no writes in that case), short of the
    // eligibility pre-scan — whose only effect, the eligible==0 early
    // return, cannot apply when cur_ itself is eligible.
    if (entered_ && !queues[cur_].empty() && !paused[cur_] &&
        deficit_[cur_] >= static_cast<double>(queues[cur_].front().wire_bytes)) {
      return cur_;
    }
    return select_slow(queues, paused);
  }

  void charge(int queue, std::uint32_t bytes) {
    deficit_[queue] -= static_cast<double>(bytes);
    if (deficit_[queue] < 0) deficit_[queue] = 0;
  }

  /// Mutable round state (deficits, current class, quantum-credit flag);
  /// weights and quantum are construction-time config.
  void checkpoint(StateIO& io) override;

 private:
  int select_slow(const std::vector<FifoQueue>& queues,
                  const std::array<bool, kNumQueueClasses>& paused);
  std::array<double, kNumQueueClasses> weights_;
  std::array<double, kNumQueueClasses> deficit_{};
  std::uint32_t quantum_;
  int cur_ = 0;        // queue currently holding the round
  bool entered_ = false;  // quantum credited for this turn?
};

/// Computes the paper's WRR weight w = (N-1)/(r-N+1) for the control queue,
/// where r is the data-to-HO size ratio.  When r <= N-1 the formula has no
/// positive solution (the paper's "r < N-1" regime); we then fall back to
/// `fallback`, which §6.3 shows handles even 255-to-1 incast in practice.
double wrr_control_weight(int incast_scale_n, double size_ratio_r, double fallback = 1.0);

}  // namespace dcp
