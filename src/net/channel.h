#pragma once
// A unidirectional point-to-point wire: fixed bandwidth + propagation delay.
// A full-duplex cable is two Channels.  The egress Port drives the channel
// (it decides when transmission starts); the Channel schedules delivery at
// the far end.
//
// Delivery lane (the two-level scheduler's first level): a fixed-rate,
// fixed-latency wire delivers strictly FIFO, so instead of one heap entry
// per in-flight packet the channel parks packets in an intrusive FIFO of
// LaneRecords — each stamped at deliver() time with its absolute arrival
// time and a global tie-break sequence — and keeps only the lane HEAD in
// the simulator heap, via a persistent Timer keyed with the head's exact
// (t, seq).  Heap size becomes O(active links) instead of O(packets in
// flight), while every delivery still consumes exactly one sequence
// number, exactly as schedule() would have at the same call site, so it
// interleaves with every other event as its own heap entry would (see
// docs/architecture.md, "Two-level scheduler").

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "check/observer.h"
#include "net/lane.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace dcp {

class StateIO;

/// One cross-shard delivery riding a cut channel (see sim/shard.h): the
/// packet is copied by value so the source shard's pool slot never leaves
/// its owning thread.  `seq` is provisional until the window barrier
/// commits it; the destination shard re-pools the bytes on arrival.
struct CrossRecord {
  Time t = 0;
  std::uint64_t seq = 0;
  std::uint32_t epoch = 0;
  bool corrupt = false;
  Packet pkt;
};

/// Fault state a FaultInjector (src/fault) installs on a channel.  The
/// struct is owned by the injector; the channel only holds a pointer, so
/// the fault-free fast path costs one null check.  All probability draws
/// come from `rng` — a stream dedicated to fault decisions — so enabling
/// faults never perturbs workload or switch randomness.
struct ChannelFault {
  double drop_rate = 0.0;     // BER-style loss: packet vanishes at the wire
  double corrupt_rate = 0.0;  // CRC failure: consumes the wire, dies at the far end
  int blackhole_refs = 0;     // > 0: silently discards everything (port stays routed)
  Rng* rng = nullptr;
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t blackholed = 0;

  bool active() const { return drop_rate > 0.0 || corrupt_rate > 0.0 || blackhole_refs > 0; }
};

class Channel final : private StampHolder {
 public:
  Channel(Simulator& sim, Bandwidth bw, Time propagation)
      : sim_(sim), bw_(bw), propagation_(propagation) {}
  ~Channel();

  void connect(Node* dst, std::uint32_t dst_port) {
    dst_ = dst;
    dst_port_ = dst_port;
    // Wiring-time resolution of the endpoint's concrete type: delivery
    // static-dispatches on this tag (see arrive()) so the switch
    // classification inlines into the arrival path.
    dst_kind_ = dst->kind();
  }

  Bandwidth bandwidth() const { return bw_; }
  Time propagation() const { return propagation_; }
  Time serialization(std::uint32_t bytes) const { return bw_.serialize(bytes); }
  Node* peer() const { return dst_; }
  std::uint32_t peer_port() const { return dst_port_; }

  /// Schedules delivery of `pkt` at the far end, `extra` (typically the
  /// serialization time) plus the propagation delay from now.  The pooled
  /// handle rides inside a lane record — no per-hop allocation or Packet
  /// copy.  Inline: this is the per-hop injection point (once per transmit
  /// from Port and the RNIC).
  void deliver(PacketPtr pkt, Time extra) {
    // `extra` is the caller's serialization backlog; a negative value would
    // deliver before the wire was even driven.
    assert(extra >= 0 && "Channel::deliver called with negative extra time");
    if (!up_ || (fault_ != nullptr && fault_->active()) || cross_dst_sim_ != nullptr) {
      deliver_slow(std::move(pkt), extra);
      return;
    }
    delivered_packets_++;
    LaneRecord* r = LanePool::local().acquire();
    r->t = sim_.now() + extra + propagation_;
    r->seq = sim_.alloc_event_seq(*this);
    r->pkt = pkt.release_raw();
    r->next = nullptr;
    r->epoch = cut_epoch_;
    r->corrupt = false;
    lane_insert(r);
  }
  void deliver(Packet pkt, Time extra) { deliver(PacketPtr::make(std::move(pkt)), extra); }

  /// A downed channel discards everything handed to it (cut fiber).
  /// Packets already on the wire at cut time follow the in-flight policy
  /// below: by default they still arrive (the photons are past the cut);
  /// with drop-in-flight they are lost too (cut at the far-end connector).
  void set_up(bool up) {
    if (!up && up_ && drop_in_flight_on_cut_) cut_epoch_++;
    up_ = up;
  }
  bool up() const { return up_; }

  /// In-flight policy for set_up(false).  Default false: packets already
  /// handed to the wire are delivered (what tests/test_failures.cpp relies
  /// on — a cut only discards *subsequent* traffic).  True: a cut also
  /// kills everything currently propagating, counted in in_flight_dropped().
  /// The cut itself is O(1) in both modes: lane records are doomed lazily
  /// (their send-time epoch no longer matches) and still reach the head at
  /// their stamped times, where they account as in-flight drops.
  void set_drop_in_flight_on_cut(bool drop) { drop_in_flight_on_cut_ = drop; }

  /// Fault-injection state (see ChannelFault).  Pass nullptr to detach.
  void set_fault(ChannelFault* f) { fault_ = f; }
  ChannelFault* fault() const { return fault_; }

  std::uint64_t delivered_packets() const { return delivered_packets_; }
  std::uint64_t discarded_packets() const { return discarded_packets_; }
  std::uint64_t in_flight_dropped() const { return in_flight_dropped_; }

  /// Packets currently parked in the delivery lane.
  std::size_t lane_pending() const { return lane_len_; }
  /// Lane records doomed by a drop-in-flight cut but not yet fired.
  std::size_t lane_doomed_pending() const;

  // --- Cross-shard cut edges (see sim/shard.h) -----------------------------
  // A channel whose endpoints live on different shards becomes a mailbox:
  // deliver() stamps one sequence (exactly like the lane path) and parks a
  // CrossRecord in the source-thread outbox; at the window barrier the
  // coordinator commits the stamps, sorts the batch by (t, seq) and merges
  // it into the destination-side inbox FIFO in one pass.  Like a delivery
  // lane, only the inbox HEAD occupies the destination heap — a persistent
  // timer keyed with the head's exact (t, seq), re-armed as records pop —
  // so each record still costs exactly one fired event and accounting is
  // bit-identical to the serial lane, without one heap insert per record
  // at the barrier.

  /// Makes the channel a cut edge whose far end runs on `dst_sim`, the
  /// destination shard's simulator.
  void make_cut_edge(Simulator& dst_sim);
  std::size_t cross_pending() const {
    return outbox_.size() + (inbox_.size() - inbox_head_);
  }

  /// Checkpoint hook (sim/snapshot.h): scalar counters, parked lane
  /// records and cross-shard inbox records (each a (t, seq, packet) tuple;
  /// on load the head timer is re-armed with the head's saved key).  Must
  /// run at a barrier-safe point: the outbox is empty there.
  void checkpoint(StateIO& io);

 private:
  /// Everything deliver()'s fast path punts on: downed wire, active fault
  /// state (drop/corrupt/blackhole draws) and cross-shard cut edges.
  void deliver_slow(PacketPtr pkt, Time extra);
  /// Far-end arrival, shared by the lane head and the cross-shard inbox:
  /// in-flight cut and corruption checks, then a {kind, ptr} static
  /// dispatch to the final receive_fast entries (custom kOther nodes take
  /// the virtual Node::receive hop).  `sim` is the simulator executing the
  /// arrival — the destination shard's on a cut edge.
  void arrive(PacketPtr p, std::uint32_t epoch, bool corrupt, Simulator& sim);
  void lane_insert(LaneRecord* r) {
    ++lane_len_;
    if (lane_head_ == nullptr) {
      lane_head_ = lane_tail_ = r;
      lane_timer_.arm_keyed_abs(r->t, r->seq);
      return;
    }
    if (lane_tail_->t <= r->t) {
      // FIFO fast path: queue-driven traffic arrives in serialization order,
      // and at equal times r's fresher sequence number keeps it behind.
      lane_tail_->next = r;
      lane_tail_ = r;
      return;
    }
    lane_insert_ooo(r);
  }
  void lane_insert_ooo(LaneRecord* r);
  void fire_lane();
  void cross_arrive_next();

  /// Barrier (StampHolder): commits the stamps of the lane records and
  /// the outbox; true when the outbox holds records to drain.
  bool commit_stamps(const SeqRemap& remap) override;
  /// Barrier, after every shard's heaps are relabeled: sorts the outbox
  /// and merges it into the destination inbox.  Returns the number of
  /// records moved — the ShardGroup's mailbox-pressure signal.
  std::size_t drain() override;

  Simulator& sim_;
  Bandwidth bw_;
  Time propagation_;
  Node* dst_ = nullptr;
  std::uint32_t dst_port_ = 0;
  NodeKind dst_kind_ = NodeKind::kOther;
  bool up_ = true;
  bool drop_in_flight_on_cut_ = false;
  std::uint32_t cut_epoch_ = 0;  // bumped by drop-in-flight cuts
  ChannelFault* fault_ = nullptr;
  std::uint64_t delivered_packets_ = 0;
  std::uint64_t discarded_packets_ = 0;
  std::uint64_t in_flight_dropped_ = 0;

  // Cross-shard mailbox: outbox_ is appended by the source shard thread
  // during windows; inbox_ is kept sorted ascending by (t, seq) from
  // inbox_head_ on, merged into by the barrier coordinator and consumed
  // front-to-back by the destination shard thread via cross_timer_ — the
  // phases never overlap, and the barrier's release/acquire pair publishes
  // each side's writes to the other.
  Simulator* cross_dst_sim_ = nullptr;
  std::vector<CrossRecord> outbox_;
  std::vector<CrossRecord> inbox_;
  std::size_t inbox_head_ = 0;
  // Persistent keyed timer on the DESTINATION shard's simulator mirroring
  // the inbox head (created by make_cut_edge — the destination is not
  // known at construction).
  std::unique_ptr<Timer> cross_timer_;

  // Delivery lane: intrusive FIFO, earliest first; the head's (t, seq) is
  // mirrored by lane_timer_ whenever the lane is non-empty.
  LaneRecord* lane_head_ = nullptr;
  LaneRecord* lane_tail_ = nullptr;
  std::size_t lane_len_ = 0;
  Timer lane_timer_{sim_, [this] { fire_lane(); }};
};

}  // namespace dcp
