#pragma once
// WorldSpec and SimWorld: every world the harness builds, from one spec,
// through one builder.  A WorldSpec is everything needed to rebuild a world
// bit-identically; its text form is the config grammar (harness/config.h),
// so a config file and a fuzz repro are the same thing.  SimWorld builds a
// spec in one fixed order — shard group, topology, scheme, workload,
// oracle, injector — and exposes barrier-safe run_to() / save() /
// restore() on top (docs/checkpoint.md), so that
//
//   SimWorld a(spec);  a.run_to(T);  a.save(img);  a.run_until_done();
//   SimWorld b(spec);  b.restore(img);             b.run_until_done();
//
// leaves a and b with identical digests AND identical events_processed.
// The experiments (harness/experiment.h) are preset specs plus readouts.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/invariant_oracle.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "harness/scheme.h"
#include "sim/logger.h"
#include "sim/shard.h"
#include "sim/snapshot.h"
#include "topo/clos.h"
#include "topo/fattree.h"
#include "topo/network.h"
#include "topo/testbed.h"
#include "topo/wan.h"
#include "workload/collective.h"
#include "workload/incast.h"

namespace dcp {

/// Message granularity (FlowSpec::msg_bytes) of every generated flow and
/// of the experiments' own flows.  14-bit counters support up to 16 MB per
/// message at 1 KB MTU (§4.5); the fault drill posts finer messages.
inline constexpr std::uint64_t kFlowMsgBytes = 4 * 1024 * 1024;

/// Without an explicit `injector_seed`, the injector's seed is seed ^ tag.
inline constexpr std::uint64_t kInjectorSeedTag = 0xfa017;

enum class TopoKind { kTestbed, kClos, kFatTree, kWan };
enum class WorkloadDist { kWebSearch, kDataMining };
enum class CollectiveKind { kAllReduce, kAllToAll };

/// One explicit flow, by host index into the world's topology.
struct WorldFlow {
  /// dst = kAcross: host shape().far + src of the built topology, across
  /// the fabric (`dst=across` in a flow line).
  static constexpr int kAcross = -1;

  int src = 0;
  int dst = 1;
  std::uint64_t bytes = 64 * 1024;
  std::uint64_t msg_bytes = 0;  // 0 = one message for the whole flow
  Time start = 0;

  bool operator==(const WorldFlow&) const = default;
};

struct WorldSpec {
  /// Seeds the Poisson draws, a WAN's wire-loss streams and, unless
  /// `injector_seed` is set, the injector (seed ^ kInjectorSeedTag).
  std::uint64_t seed = 1;

  // Topology: `topo` picks the param struct that applies.  The builder
  // takes every struct's `sw` from the scheme and a WAN's wan_seed from
  // `seed`.
  TopoKind topo = TopoKind::kClos;
  TestbedParams testbed;
  ClosParams clos;
  FatTreeParams fattree;
  WanParams wan;
  double loss_rate = 0.0;            // testbed: random loss at switch 1
  std::uint16_t sport_base = 10000;  // first UDP source port (ECMP draws)

  SchemeKind scheme = SchemeKind::kDcp;
  SchemeOptions opt;

  // Workload, posted in this order.  Generated flows use kFlowMsgBytes
  // and the topology's host link rate.
  std::vector<WorldFlow> flows;
  std::size_t poisson_flows = 0;  // Poisson arrivals between random hosts
  double load = 0.3;
  WorkloadDist dist = WorkloadDist::kWebSearch;
  bool with_incast = false;
  IncastParams incast;
  int groups = 0;  // collectives; member m of group g sits on host m*groups+g
  int members = 4;
  CollectiveKind collective = CollectiveKind::kAllReduce;
  std::uint64_t collective_bytes = 16ull * 1024 * 1024;

  FaultPlan faults;
  std::optional<std::uint64_t> injector_seed;
  Time max_time = milliseconds(50);
  /// 0 = resolve_shards over the topology's partition units.  More than
  /// one shard on a world that must run on one (a fault plan with an
  /// effect, or collectives) is refused.
  int shards = 0;
  bool oracle = false;
  /// Replaces the scheme's transport factory (broken test doubles); the
  /// scheme still picks the switch config.
  std::shared_ptr<TransportFactory> factory_override;

  /// What the builder, the parser and the readouts need of the topology.
  struct Shape {
    int hosts;       // host count, in host-index order
    int far;         // first host across the fabric: switch 2, last leaf or pod, region 1
    int units;       // shard partition units: sides, leaves, pods or regions
    Bandwidth rate;  // host link rate, which generated flows are sized against
  };
  Shape shape() const;
  int num_hosts() const { return shape().hosts; }
  /// The flow's destination host, with kAcross resolved.
  int dst_of(const WorldFlow& f) const {
    return f.dst == WorldFlow::kAcross ? shape().far + f.src : f.dst;
  }
  /// Every field: the canonical config text, which writes each value
  /// exactly, plus the fields that have no text form.  Specs with equal
  /// identities build the same world.
  std::string identity() const;
  /// Hash of identity(); restore refuses an image whose fingerprint differs.
  std::uint64_t fingerprint() const;
  bool operator==(const WorldSpec& o) const { return identity() == o.identity(); }
};

/// Order-sensitive digest of a finished (or paused) world: per-flow
/// completion stamps and stats, aggregate switch counters, and the total
/// event count.  Two runs are bit-identical iff their digests match.
struct WorldDigest {
  std::uint64_t value = 0;
  std::uint64_t events = 0;
  bool operator==(const WorldDigest&) const = default;
};

/// The oracle's verdict on a finished world.
struct FuzzVerdict {
  bool violated = false;
  std::string invariant;  // first violation's stable id
  std::string message;    // InvariantOracle::summary()
  Time at = 0;
  std::size_t num_violations = 0;
  bool all_complete = false;  // every flow finished inside max_time
  std::string trace;          // event-ring tail up to the first violation
};

class SimWorld {
 public:
  explicit SimWorld(const WorldSpec& spec);
  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  const WorldSpec& spec() const { return spec_; }
  Network& net() { return *net_; }
  ShardGroup& shards() { return *shards_; }
  InvariantOracle* oracle() { return oracle_.get(); }
  FaultInjector& injector() { return *inj_; }
  const std::vector<std::unique_ptr<Collective>>& collectives() const { return collectives_; }
  /// Random wire-loss drops across a WAN's inter-region links (0 elsewhere).
  std::uint64_t wire_dropped() const { return wan_.wire_dropped(); }
  int shard_count() const { return shards_->size(); }
  std::uint64_t events_processed() const { return shards_->events_processed(); }

  /// Pauses the canonical run_until_done trajectory just before t, at a
  /// barrier-safe snapshot point (Network::run_to_paused).
  void run_to(Time t) { at_ = net_->run_to_paused(t, spec_.max_time); }
  /// Runs to completion (max_time cap), resuming from wherever run_to()
  /// or restore() left the clocks.
  void run_until_done() { net_->run_until_done(spec_.max_time); }
  /// Finalizes the oracle and assembles the verdict.
  FuzzVerdict finalize_verdict();

  /// Why this world cannot be saved, or "" when it can.  TcpLite parks
  /// each ACK and data packet in a kernel-delay closure that a re-armed
  /// restore cannot rebuild; a collective's member state and a lossy
  /// WAN's wire-loss streams live outside every checkpoint.
  std::string snapshot_refusal() const;
  /// Captures the world state at the current (barrier-safe) point; fails,
  /// world untouched, when snapshot_refusal() is non-empty.
  bool save(SnapshotImage& out, std::string* error = nullptr);
  /// Overlays an image saved from this world's spec onto this freshly
  /// built world; on failure the world must be discarded.
  bool restore(const SnapshotImage& img, std::string* error = nullptr);

  WorldDigest digest() const;

 private:
  WorldSpec spec_;
  std::unique_ptr<ShardGroup> shards_;
  std::unique_ptr<Logger> log_;
  std::unique_ptr<Network> net_;
  std::vector<Host*> hosts_;  // host-index order of the topology
  WanTopology wan_;           // owns a WAN's wire-loss streams
  std::vector<std::unique_ptr<Collective>> collectives_;
  std::unique_ptr<InvariantOracle> oracle_;
  std::unique_ptr<FaultInjector> inj_;
  Time at_ = 0;  // barrier-safe point: every event with t < at_ has run
};

}  // namespace dcp
