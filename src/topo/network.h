#pragma once
// Network: owns every node, wires topologies, instantiates per-flow
// transports through the configured scheme factory, and records flow
// completion metrics.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "host/host.h"
#include "host/transport.h"
#include "net/packet.h"
#include "sim/shard.h"
#include "switch/switch.h"

namespace dcp {

class StateIO;

/// Shortest-path properties between two hosts, used for ideal-FCT
/// normalization (FCT slowdown).  Installed by topology builders.
struct PathInfo {
  Time one_way_delay = 0;     // propagation only
  int hops = 2;               // store-and-forward stages (links traversed)
  Bandwidth bottleneck = Bandwidth::gbps(100);
};

/// Each end's stats are copied when that end completes (the sender's at
/// tx_done, the receiver's at rx_done); an end that never completes holds
/// its live stats as of the stop of Network::run_to_paused.
struct FlowRecord {
  FlowSpec spec;
  Time rx_done = -1;  // receiver has every byte
  Time tx_done = -1;  // sender fully acknowledged
  SenderStats sender;
  ReceiverStats receiver;
  bool complete() const { return tx_done >= 0; }
  Time fct() const { return tx_done - spec.start_time; }
  Time rx_fct() const { return rx_done - spec.start_time; }
};

class Network {
 public:
  Network(Simulator& sim, Logger& log) : sim_(sim), log_(log) {}
  /// Shard-aware construction: nodes are created on the shard selected by
  /// set_build_shard() and the run loop advances the group in lookahead
  /// windows.  A group of size 1 is bit-for-bit the serial path.
  Network(ShardGroup& shards, Logger& log)
      : sim_(shards.sim(0)), log_(log), shards_(&shards) {}

  // ---- Construction -----------------------------------------------------
  Host* add_host(const std::string& name, Bandwidth nic_bw, Time link_prop);
  Switch* add_switch(const std::string& name, const SwitchConfig& cfg);
  /// Full-duplex host<->switch attachment; returns the switch port index.
  std::uint32_t attach(Host* h, Switch* s, Bandwidth bw, Time prop);
  /// Full-duplex switch<->switch link; returns {port_on_a, port_on_b}.
  std::pair<std::uint32_t, std::uint32_t> link(Switch* a, Switch* b, Bandwidth bw, Time prop);
  /// Direct host<->host cable (back-to-back benchmarks).
  void direct_link(Host* a, Host* b);

  // ---- Scheme & flows ---------------------------------------------------
  void set_factory(std::shared_ptr<TransportFactory> f) { factory_ = std::move(f); }
  TransportFactory* factory() { return factory_.get(); }
  void set_transport_config(const TransportConfig& cfg) { tcfg_ = cfg; }

  /// Registers and schedules a flow; returns its id.  spec.id/sport are
  /// assigned here.  A loopback flow (src == dst) aborts with a message.
  FlowId start_flow(FlowSpec spec);

  /// Shifts the UDP source-port sequence (varies ECMP hashing across
  /// otherwise identical runs).
  void set_sport_base(std::uint16_t base) { next_sport_ = base; }

  std::size_t flows_started() const { return records_.size(); }
  std::size_t flows_completed() const { return completed_; }
  bool all_flows_done() const { return completed_ == records_.size(); }
  const std::vector<FlowRecord>& records() const { return records_; }
  FlowRecord& record(FlowId id) { return records_[index_.at(id)]; }

  /// Per-flow completion listeners (fire when the sender finishes;
  /// workloads chain dependent flows).
  void add_tx_listener(std::function<void(const FlowRecord&)> fn) {
    tx_listeners_.push_back(std::move(fn));
  }
  /// Fires when the receiver has every byte (before the final ACK lands).
  void add_rx_listener(std::function<void(const FlowRecord&)> fn) {
    rx_listeners_.push_back(std::move(fn));
  }

  // ---- Introspection ----------------------------------------------------
  Host* host(NodeId id);
  const std::vector<std::unique_ptr<Host>>& hosts() const { return hosts_; }
  const std::vector<std::unique_ptr<Switch>>& switches() const { return switches_; }
  Simulator& sim() { return sim_; }
  Logger& log() { return log_; }

  // ---- Space-parallel sharding (see sim/shard.h) ------------------------
  /// The group driving this network, or nullptr for plain construction.
  ShardGroup* shard_group() { return shards_; }
  /// Number of shards nodes may be assigned to (1 without a group).
  int shard_count() const { return shards_ != nullptr ? shards_->size() : 1; }
  /// Topology builders select the shard subsequent nodes are created on.
  void set_build_shard(int s) {
    build_shard_ = (shards_ != nullptr && s >= 0 && s < shards_->size()) ? s : 0;
  }
  int shard_of(NodeId id) const { return shard_of_node_[id]; }
  /// Arms the observer on every shard's simulator (serial: just sim()).
  void set_check_observer_all(CheckObserver* ob);

  /// Path metadata for ideal-FCT; installed by topology builders.
  std::function<PathInfo(NodeId, NodeId)> path_info;

  /// Ideal (unloaded-network) sender-side FCT for a flow: first-packet
  /// pipeline latency + serialization of the remaining bytes + ACK return.
  Time ideal_fct(NodeId src, NodeId dst, std::uint64_t bytes) const;

  // ---- Running ------------------------------------------------------------
  /// Runs the simulation until all flows complete or `max_time` elapses.
  void run_until_done(Time max_time) { run_to_paused(kTimeInfinity, max_time); }
  /// The one canonical run loop.  Runs in slices on an absolute grid of
  /// max(100us, max_time / 10000) and stops at the first grid boundary
  /// where every flow is done, when the queues drain, or at max_time —
  /// pausing early, at a barrier-safe snapshot point, once the next slice
  /// would reach `t`: every event with time strictly below `t` has run
  /// and, under sharding, every window barrier is committed.  Returns the
  /// pause point actually reached — t when the run is still live there, or
  /// (stop + 1) when it ended before t; at that stop, not at a pause, every
  /// end that never completed records its live stats.  Resuming with
  /// run_until_done() is bit-identical to a run that never stopped: both
  /// follow the same grid and test completion only on its boundaries, so
  /// they stop at the same boundary and run the same trailing timer events.
  Time run_to_paused(Time t, Time max_time);

  // ---- Checkpoint/restore (sim/snapshot.h) ------------------------------
  /// Restore prep on a freshly built target: flips shard-run mode on
  /// (cut-edge mailboxes) without running a window, so cross-shard
  /// state can be overlaid.  No-op when serial.
  void prepare_shard_run();
  /// Restore prep: cancels the flow-start events of flows whose start time
  /// lies strictly before `t` — the saved run already executed them, and
  /// their effects are overlaid by checkpoint() instead.
  void cancel_started_flows(Time t);
  /// Flow records, completion counts, then every host and switch in node
  /// order.  Fails the stream when a window effect is still pending (the
  /// caller did not stop at a barrier).
  void checkpoint(StateIO& io);

  // Aggregate switch counters (across all switches).
  Switch::Stats total_switch_stats() const;

 private:
  void wire_host_hooks(Host* h);
  /// One end of flow `id` completed on h's shard: applies the shared
  /// effects now, or defers them to the barrier during a shard window.
  void end_done(Host& h, FlowId id, bool tx);
  /// The shared effects of an end's completion: a sender's bumps the
  /// completion count, then that end's listeners fire.
  void apply_end_done(FlowId id, bool tx);
  Simulator& build_sim() { return shards_ != nullptr ? shards_->sim(build_shard_) : sim_; }

  /// One end completion observed during a window, applied at the barrier.
  struct PendingDone {
    FlowId id = 0;
    Time t = 0;
    std::uint64_t seq = 0;
    bool tx = false;  // the sender's end; else the receiver's
  };
  /// One shard's deferred completions.  Their keys are the deferring
  /// events' stamps, so the list is a StampHolder on that shard.
  struct PendingEffects final : StampHolder {
    std::vector<PendingDone> done;
    bool commit_stamps(const SeqRemap& remap) override;
  };

  /// Lazily flips the network into sharded-run mode: locates cut channels
  /// and computes the lookahead.
  void finalize_shards();
  /// Runs shard windows, committing each one's barrier effects, until
  /// nothing at or below `bound` is pending.  Returns true when every shard
  /// has drained.
  bool run_windows(Time bound);
  /// Barrier step after each window: applies the deferred completions in
  /// serial (t, seq) order.  Every effect recorded in the window lies at or
  /// below its bound, which all shards have reached, so all of them apply.
  void commit_window_effects();

  Simulator& sim_;
  Logger& log_;
  ShardGroup* shards_ = nullptr;
  int build_shard_ = 0;
  std::vector<int> shard_of_node_;
  bool shards_finalized_ = false;
  bool shard_run_active_ = false;
  std::vector<PendingEffects> pending_;  // [shard], own thread only
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Switch>> switches_;
  std::unordered_map<NodeId, Host*> host_by_id_;
  std::shared_ptr<TransportFactory> factory_;
  TransportConfig tcfg_;
  std::vector<FlowRecord> records_;
  std::vector<EventId> start_ev_;  // flow-start events, aligned with records_
  std::vector<std::function<void(const FlowRecord&)>> tx_listeners_;
  std::vector<std::function<void(const FlowRecord&)>> rx_listeners_;
  std::unordered_map<FlowId, std::size_t> index_;
  std::size_t completed_ = 0;
  FlowId next_flow_ = 1;
  std::uint16_t next_sport_ = 10000;
  NodeId next_node_ = 0;
};

}  // namespace dcp
