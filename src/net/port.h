#pragma once
// An egress port: a set of per-class FIFO queues, the DWRR scheduler that
// serves them, per-class PFC pause state, and the outgoing Channel it
// drives.  Switches own ports; hosts transmit through their RnicScheduler.
//
// The port is a pull model: whenever the wire goes idle it asks the
// scheduler which queue to serve next.  DCP-Switch weights the control
// queue (trimmed header-only packets) over the data queue so that its
// drain rate covers the worst-case trim rate (paper §4.2; the weight
// formula is wrr_control_weight in switch/scheduler.h).

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "net/channel.h"
#include "net/packet.h"
#include "net/queue.h"
#include "sim/simulator.h"

namespace dcp {

/// A port's egress queues, one per queue class, held inline.
using PortQueues = std::array<FifoQueue, kNumQueueClasses>;

/// Byte-deficit weighted round robin across the queue classes.
class DwrrPolicy {
 public:
  /// Deficit credited per turn to a class of weight 1.
  static constexpr std::uint32_t kQuantumBytes = 2048;

  /// `weights[i]` is the relative byte share of class i.  They may be
  /// fractional (e.g. control weight 3.75 vs data weight 1).
  explicit DwrrPolicy(std::array<double, kNumQueueClasses> weights) : weights_(weights) {}

  /// Returns the index of the queue to serve, or -1 if nothing is eligible.
  /// `paused[i]` means class i must not be served (PFC).  Inline: the whole
  /// decision compiles into Port's transmit path.
  int select(const PortQueues& queues, const std::array<bool, kNumQueueClasses>& paused) {
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
  /// the weights are construction-time config.
  void checkpoint(StateIO& io);

 private:
  int select_slow(const PortQueues& queues, const std::array<bool, kNumQueueClasses>& paused);
  std::array<double, kNumQueueClasses> weights_;
  std::array<double, kNumQueueClasses> deficit_{};
  int cur_ = 0;        // queue currently holding the round
  bool entered_ = false;  // quantum credited for this turn?
};

class Port {
 public:
  struct Stats {
    std::uint64_t tx_packets = 0;
    std::uint64_t tx_bytes = 0;
    std::array<std::uint64_t, kNumQueueClasses> tx_packets_by_class{};
    std::uint64_t enqueued_packets = 0;
  };

  /// `weights` are the DWRR byte shares of the queue classes.
  Port(Simulator& sim, Bandwidth bw, Time propagation,
       std::array<double, kNumQueueClasses> weights)
      : sim_(sim), channel_(sim, bw, propagation), policy_(weights) {}

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
  bool idle() const { return !transmitting_; }
  const Stats& stats() const { return stats_; }

  /// Invoked with every packet the port dequeues for transmission, before
  /// it hits the wire.  The owner (switch) uses it to release shared-buffer
  /// and PFC ingress accounting.  A raw (fn, ctx) pair rather than a
  /// std::function: this fires once per transmitted packet on the hot path.
  using DequeueHook = void (*)(void* ctx, const Packet&);
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
  DwrrPolicy policy_;
  PortQueues queues_;
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
