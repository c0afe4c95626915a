#pragma once
// FaultInjector: executes a FaultPlan against a live Network.
//
// The injector arms one event per action start (and one per action end,
// when the action has a finite window) on the simulator's event queue at
// construction.  Fault probability draws come from a dedicated RNG stream
// (Rng::substream of the injector seed), and switches use their own fault
// substream for control-queue loss — enabling faults never perturbs
// workload arrival or load-balancing randomness, and a plan whose actions
// are all no-ops (see FaultAction::is_noop) arms nothing at all, leaving
// the run bit-identical to a fault-free one.
//
// State is injected through small hooks on existing components rather than
// copies of their logic: ChannelFault pointers on channels (drop / corrupt
// / blackhole), Switch::set_link_up (flap), SwitchConfig::inject_ho_loss_rate
// (control-queue loss) and SharedBuffer::set_capacity (buffer shrink).
// Overlapping rate faults on one link compose additively; the injector's
// destructor detaches every hook it installed.
//
// Interaction with the two-level scheduler (net/lane.h): none of the hooks
// touch the simulator heap.  Drop and corrupt draws happen at hand-off, in
// Channel::deliver_slow, in transmit order; a corrupted frame still rides
// the lane and dies at the far end.  A drop-in-flight link cut is an O(1)
// epoch bump on the channel: records already parked in the lane are doomed
// *lazily* — they stay in the FIFO, surface at their stamped (t, seq), and
// only then account as in_flight_dropped.

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "fault/fault_plan.h"
#include "sim/rng.h"
#include "topo/network.h"

namespace dcp {

class StateIO;

class FaultInjector {
 public:
  /// Wire-level fault counters aggregated over every hooked channel.
  struct Counters {
    std::uint64_t dropped = 0;      // random per-link drops
    std::uint64_t corrupted = 0;    // CRC-failed deliveries
    std::uint64_t blackholed = 0;   // discarded by blackholed ports
    std::uint64_t in_flight_dropped = 0;  // killed mid-wire by drop-in-flight cuts
    std::uint64_t link_cuts = 0;
    std::uint64_t link_restores = 0;
  };

  FaultInjector(Network& net, FaultPlan plan, std::uint64_t seed = 0xfa017);
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }

  /// Fired when action `i` takes effect / reverts (no-op actions never
  /// fire).  The recovery-statistics collector hangs off these.
  std::function<void(std::size_t, const FaultAction&, Time)> on_fault_start;
  std::function<void(std::size_t, const FaultAction&, Time)> on_fault_end;

  Counters counters() const;

  // ---- Checkpoint/restore (sim/snapshot.h) ------------------------------
  /// Restore prep: re-executes the structural side effects of every action
  /// start/revert with time strictly below `t` — in fire order, with the
  /// notification callbacks suppressed — and cancels their armed events.
  /// This reproduces hook creation order (stable ChannelFault addresses),
  /// the cut-channel list and saved capacities exactly as the saved run
  /// left them; the value state they carry is then overlaid by
  /// checkpoint().  Mutations to switches/channels made here are likewise
  /// overwritten by their own checkpoints.
  void replay_to(Time t);
  /// RNG position, aggregate counters and every hooked channel's fault
  /// rates/counters (in hook-creation order, which replay_to reproduced).
  void checkpoint(StateIO& io);

 private:
  void arm();
  void apply(std::size_t i);
  void revert(std::size_t i);
  /// Resolves an action's target switches (sw == kAll fans out).
  std::vector<Switch*> target_switches(const FaultAction& a) const;
  /// Resolves target (switch, port) pairs (port == kAll fans out).
  std::vector<std::pair<Switch*, std::uint32_t>> target_ports(const FaultAction& a) const;
  /// The per-channel fault state, created and installed on first use.
  ChannelFault* hook(Channel& ch);
  void flip_link(Switch* sw, std::uint32_t port, bool up, bool drop_in_flight);
  void note_cut_channel(Channel* ch);

  Network& net_;
  FaultPlan plan_;
  Rng rng_;
  std::vector<EventId> events_;      // armed start/revert events (cancelled in dtor)
  std::deque<ChannelFault> states_;  // deque: stable addresses for installed hooks
  std::unordered_map<Channel*, ChannelFault*> hooked_;
  std::vector<Channel*> cut_channels_;  // channels ever cut (in-flight-drop accounting)
  // Saved pre-fault values for revert, keyed by action index.
  std::unordered_map<std::size_t, std::vector<std::pair<Switch*, std::uint64_t>>> saved_capacity_;
  Counters ctr_;
};

}  // namespace dcp
