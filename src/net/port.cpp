#include "net/port.h"

// For the static select/charge dispatch below: DwrrPolicy's bodies are
// header-inline, so including it here adds no link dependency on the
// switch library.
#include "sim/snapshot.h"
#include "switch/scheduler.h"

namespace dcp {

void Port::checkpoint(StateIO& io) {
  io.label(0x9047u);
  channel_.checkpoint(io);
  io.fixed(queues_, [](StateIO& s, FifoQueue& q) { q.checkpoint(s); });
  io.pod(paused_);
  io.pod(transmitting_);
  io.pod(stats_);
  policy_->checkpoint(io);
  io.timer(tx_done_);
}

void Port::enqueue(PacketPtr pkt) {
  const int c = static_cast<int>(pkt->queue_class);
  queues_[c].push(std::move(pkt));
  stats_.enqueued_packets++;
  try_transmit();
}

void Port::send_oob(Packet pkt) {
  channel_.deliver(std::move(pkt), channel_.serialization(HeaderSizes::kPfcFrame));
}

void Port::set_paused(int queue_class, bool paused) {
  if (paused_[queue_class] == paused) return;
  paused_[queue_class] = paused;
  if (!paused) try_transmit();
}

std::uint64_t Port::total_queued_bytes() const {
  std::uint64_t total = 0;
  for (const auto& q : queues_) total += q.bytes();
  return total;
}

void Port::try_transmit() {
  if (transmitting_) return;
  // Static dispatch on the policy tag cached at construction: both concrete
  // policies are final with header-visible bodies, so the scheduling
  // decision inlines here instead of taking two virtual hops per packet.
  const bool dwrr = policy_kind_ == SchedulerPolicy::Kind::kDwrr;
  const int c = dwrr ? static_cast<DwrrPolicy*>(policy_.get())->select(queues_, paused_)
                     : static_cast<StrictPriorityPolicy*>(policy_.get())->select(queues_, paused_);
  if (c < 0) return;

  PacketPtr pkt = queues_[c].pop();
  // Strict priority keeps no deficit state.
  if (dwrr) static_cast<DwrrPolicy*>(policy_.get())->charge(c, pkt->wire_bytes);
  stats_.tx_packets++;
  stats_.tx_bytes += pkt->wire_bytes;
  stats_.tx_packets_by_class[c]++;
  if (dequeue_fn_ != nullptr) dequeue_fn_(dequeue_ctx_, *pkt);

  const Time ser = channel_.serialization(pkt->wire_bytes);
  channel_.deliver(std::move(pkt), ser);
  transmitting_ = true;
  tx_done_.arm(ser);
}

}  // namespace dcp
