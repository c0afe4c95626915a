#include "sim/simulator.h"

namespace dcp {

thread_local const Simulator* Simulator::tls_active_ = nullptr;

void Simulator::run(Time until) {
  const Simulator* outer = tls_active_;
  tls_active_ = this;
  stopped_ = false;
  while (!stopped_) {
    // One fused top-selection per event (next_time() + pop would scan the
    // three heap tops twice).
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

bool Simulator::run_one() {
  const Simulator* outer = tls_active_;
  tls_active_ = this;
  const bool ran = queue_.pop_and_run(now_);
  tls_active_ = outer;
  if (!ran) return false;
  ++events_processed_;
  return true;
}

}  // namespace dcp
