#pragma once
// An egress port: a set of per-class FIFO queues, a scheduling policy,
// per-class PFC pause state, and the outgoing Channel it drives.
//
// The port is a pull model: whenever the wire goes idle it asks the
// scheduler which queue to serve next.  Switches install a DWRR scheduler
// (control queue weighted over data, paper §4.2); hosts use strict
// priority (ACK/HO bounce over data).

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/channel.h"
#include "net/packet.h"
#include "net/queue.h"
#include "sim/simulator.h"

namespace dcp {

/// Chooses which queue class an egress port serves next.  The two final
/// policies, StrictPriorityPolicy (below) and DwrrPolicy
/// (switch/scheduler.h), are the only ones; Port calls their non-virtual
/// select()/charge() through the kind() tag.
class SchedulerPolicy {
 public:
  /// Concrete-type tag, resolved once at Port construction: the per-packet
  /// transmit path static-dispatches select()/charge() on it (the same
  /// {kind, ptr} devirtualization as Channel -> Node delivery).
  enum class Kind : std::uint8_t { kStrict, kDwrr };
  virtual ~SchedulerPolicy() = default;
  virtual Kind kind() const = 0;

  /// Checkpoint hook (sim/snapshot.h): policies with mutable round state
  /// (DWRR deficits) override; stateless policies have nothing to save.
  virtual void checkpoint(StateIO& io) { (void)io; }
};

/// Serves the lowest-index non-empty queue (class 0 first).  With a single
/// class this is plain FIFO.
class StrictPriorityPolicy final : public SchedulerPolicy {
 public:
  /// `high_first` lists class indices from highest to lowest priority.
  explicit StrictPriorityPolicy(std::vector<int> high_first) : order_(std::move(high_first)) {}
  StrictPriorityPolicy() : order_{0, 1} {}

  Kind kind() const override { return Kind::kStrict; }

  /// Returns the index of the queue to serve, or -1 if nothing is eligible.
  /// `paused[i]` means class i must not be served (PFC).
  int select(const std::vector<FifoQueue>& queues,
             const std::array<bool, kNumQueueClasses>& paused) const {
    for (int c : order_) {
      if (static_cast<std::size_t>(c) < queues.size() && !queues[c].empty() && !paused[c]) {
        return c;
      }
    }
    return -1;
  }

 private:
  std::vector<int> order_;
};

class Port {
 public:
  struct Stats {
    std::uint64_t tx_packets = 0;
    std::uint64_t tx_bytes = 0;
    std::array<std::uint64_t, kNumQueueClasses> tx_packets_by_class{};
    std::uint64_t enqueued_packets = 0;
  };

  Port(Simulator& sim, Bandwidth bw, Time propagation,
       std::unique_ptr<SchedulerPolicy> policy)
      : sim_(sim),
        channel_(sim, bw, propagation),
        policy_(std::move(policy)),
        policy_kind_(policy_->kind()),
        queues_(kNumQueueClasses) {}

  Channel& channel() { return channel_; }
  const Channel& channel() const { return channel_; }
  void connect(Node* dst, std::uint32_t dst_port) { channel_.connect(dst, dst_port); }

  /// Queues a packet in its queue class and kicks the wire if idle.
  void enqueue(PacketPtr pkt);
  void enqueue(Packet pkt) { enqueue(PacketPtr::make(std::move(pkt))); }

  /// Sends a frame "out of band": it reaches the peer after its own
  /// serialization + propagation but does not occupy the wire or any queue.
  /// Used for PFC PAUSE/RESUME frames, which real NIC/switch MACs transmit
  /// with absolute precedence.
  void send_oob(Packet pkt);

  /// PFC pause state for a queue class.
  void set_paused(int queue_class, bool paused);
  bool paused(int queue_class) const { return paused_[queue_class]; }

  const FifoQueue& queue(int c) const { return queues_[c]; }
  std::uint64_t queued_bytes(int c) const { return queues_[c].bytes(); }
  std::uint64_t total_queued_bytes() const;
  bool idle() const { return !transmitting_; }
  const Stats& stats() const { return stats_; }

  /// Invoked with every packet the port dequeues for transmission, before
  /// it hits the wire.  The owner (switch) uses it to release shared-buffer
  /// and PFC ingress accounting.  A raw (fn, ctx) pair rather than a
  /// std::function: this fires once per transmitted packet on the hot path.
  using DequeueHook = void (*)(void* ctx, const PacketHot&);
  void set_dequeue_hook(DequeueHook fn, void* ctx) {
    dequeue_fn_ = fn;
    dequeue_ctx_ = ctx;
  }

  /// Checkpoint hook (sim/snapshot.h): queues, pause state, transmit state,
  /// stats, the scheduler's round state, the serialization timer's arm and
  /// the outgoing channel.
  void checkpoint(StateIO& io);

 private:
  void try_transmit();

  DequeueHook dequeue_fn_ = nullptr;
  void* dequeue_ctx_ = nullptr;
  Simulator& sim_;
  Channel channel_;
  std::unique_ptr<SchedulerPolicy> policy_;
  // Cached policy_->kind(): try_transmit static-dispatches on it so the
  // DWRR/strict select bodies inline into the transmit path.
  SchedulerPolicy::Kind policy_kind_;
  std::vector<FifoQueue> queues_;
  std::array<bool, kNumQueueClasses> paused_{};
  bool transmitting_ = false;
  Stats stats_;
  // Serialization-done: fires once per transmitted frame, so it keeps a
  // persistent slot — re-arming is a heap insert only.
  Timer tx_done_{sim_, [this] {
    transmitting_ = false;
    try_transmit();
  }};
};

}  // namespace dcp
