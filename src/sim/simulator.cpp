#include "sim/simulator.h"

namespace dcp {

thread_local const Simulator* Simulator::tls_active_ = nullptr;

void Simulator::run(Time until) {
  const Simulator* outer = tls_active_;
  tls_active_ = this;
  for (;;) {
    // One fused top-selection per event (next_time() + pop would compare
    // the two heap tops twice).
    const EventQueue::PopResult r = queue_.pop_and_run_bounded(until, now_);
    if (r == EventQueue::PopResult::kRan) {
      ++events_processed_;
      continue;
    }
    if (r == EventQueue::PopResult::kBeyond && until != kTimeInfinity) now_ = until;
    break;
  }
  tls_active_ = outer;
}

}  // namespace dcp
