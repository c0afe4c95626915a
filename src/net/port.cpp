#include "net/port.h"

#include "sim/snapshot.h"

namespace dcp {

void DwrrPolicy::checkpoint(StateIO& io) {
  io.label(0xD3FC17u);
  io.pod(deficit_);
  io.pod(cur_);
  io.pod(entered_);
}

int DwrrPolicy::select_slow(const PortQueues& queues,
                            const std::array<bool, kNumQueueClasses>& paused) {
  constexpr int n = kNumQueueClasses;
  int eligible = 0;
  for (int c = 0; c < n; ++c) {
    if (!queues[c].empty() && !paused[c]) ++eligible;
  }
  if (eligible == 0) return -1;

  // Classic DWRR, one packet per call: the class holding the round keeps
  // being served while its deficit covers its head-of-line packet; when it
  // runs dry (or empties) the turn passes on, and each class earns
  // weight × quantum once per turn.
  for (int guard = 0; guard < 64 * n; ++guard) {
    const int c = cur_;
    if (queues[c].empty() || paused[c]) {
      deficit_[c] = 0;  // empty queues must not hoard credit
      cur_ = (cur_ + 1) % n;
      entered_ = false;
      continue;
    }
    if (!entered_) {
      deficit_[c] += weights_[c] * kQuantumBytes;
      entered_ = true;
    }
    const double need = static_cast<double>(queues[c].front().wire_bytes);
    if (deficit_[c] >= need) return c;  // stays current for the next call
    cur_ = (cur_ + 1) % n;
    entered_ = false;
  }
  // Unreachable with positive weights; serve the first eligible class to be
  // safe rather than stall the wire.
  for (int c = 0; c < n; ++c) {
    if (!queues[c].empty() && !paused[c]) return c;
  }
  return -1;
}

void Port::checkpoint(StateIO& io) {
  io.label(0x9047u);
  channel_.checkpoint(io);
  io.fixed(queues_, [](StateIO& s, FifoQueue& q) { q.checkpoint(s); });
  io.pod(paused_);
  io.pod(transmitting_);
  io.pod(stats_);
  policy_.checkpoint(io);
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

void Port::try_transmit() {
  if (transmitting_) return;
  const int c = policy_.select(queues_, paused_);
  if (c < 0) return;

  PacketPtr pkt = queues_[c].pop();
  policy_.charge(c, pkt->wire_bytes);
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
