#pragma once
// SimWorld: a deterministic, restorable fuzz-scenario world (the harness
// side of sim/snapshot.h — see docs/checkpoint.md).
//
// A WorldSpec is everything needed to rebuild the world bit-identically:
// the fuzz scenario (topology, scheme, flows, fault plan), the injector
// seed, and the optional factory override.  SimWorld builds the world in
// one fixed order (run_fuzz_scenario runs its scenarios in a SimWorld),
// then exposes barrier-safe run_to() / save() / restore() on top, so that
//
//   SimWorld a(spec);  a.run_to(T);  a.save(img);  a.run_until_done();
//   SimWorld b(spec);  b.restore(img);             b.run_until_done();
//
// leaves a and b with identical digests AND identical events_processed —
// the restored run is bit-for-bit the uninterrupted one.  An image only
// restores into a world built from the spec it was saved from.

#include <cstdint>
#include <memory>
#include <string>

#include "check/fuzzer.h"
#include "fault/fault_injector.h"
#include "check/invariant_oracle.h"
#include "harness/scheme.h"
#include "sim/logger.h"
#include "sim/shard.h"
#include "sim/snapshot.h"
#include "topo/clos.h"
#include "topo/network.h"

namespace dcp {

/// Deterministic rebuild recipe for a fuzz-style world.
struct WorldSpec {
  FuzzScenario scenario;
  /// Seed for the FaultInjector's probability draws; run_fuzz derives it
  /// from scenario.seed (mix64(seed ^ kTagInject)).  Ignored when the
  /// scenario's fault plan has no effect.
  std::uint64_t injector_seed = 0;
  /// Replaces the scheme's transport factory (broken test doubles).
  std::shared_ptr<TransportFactory> factory_override;
  bool oracle = true;
  /// Overrides the shard count (0 = resolve_shards over the scenario's
  /// pods or leaves: DCP_SHARDS when fault-free, serial otherwise).
  int force_shards = 0;

  /// Hashes every rebuild-relevant field; restore refuses a target whose
  /// fingerprint differs from the image's.
  std::uint64_t fingerprint() const;
};

/// Order-sensitive digest of a finished (or paused) world: per-flow
/// completion stamps and stats, aggregate switch counters, and the total
/// event count.  Two runs are bit-identical iff their digests match.
struct WorldDigest {
  std::uint64_t value = 0;
  std::uint64_t events = 0;
  bool operator==(const WorldDigest& o) const {
    return value == o.value && events == o.events;
  }
  bool operator!=(const WorldDigest& o) const { return !(*this == o); }
};

class SimWorld {
 public:
  explicit SimWorld(const WorldSpec& spec);
  ~SimWorld();
  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  /// Schemes whose transports implement checkpoint_extra.  TcpLite (the
  /// software-stack proxy) is the one exception: its kernel-delay stages
  /// park each ACK and data packet in a one-shot closure, and a restore
  /// re-arms only module-owned timers, so it cannot rebuild them.  Both of
  /// its ends fail the stream explicitly; its runs simply never snapshot.
  static bool snapshot_supported(SchemeKind k) { return k != SchemeKind::kTcp; }

  const WorldSpec& spec() const { return spec_; }
  Network& net() { return *net_; }
  InvariantOracle* oracle() { return oracle_.get(); }
  int shard_count() const { return shards_->size(); }
  std::uint64_t events_processed() const;

  /// Pauses the CANONICAL run_until_done trajectory just before t: every
  /// event with time strictly below t has run (committing shard-window
  /// barriers), leaving the world at a barrier-safe snapshot point.  When
  /// the canonical run stops before t (all flows done at a slice boundary,
  /// or idle), the pause lands there instead — running past that point
  /// would execute trailing timer events the uninterrupted run never sees.
  void run_to(Time t);
  /// Runs to completion (scenario.max_time cap), resuming from wherever
  /// run_to() or restore() left the clocks.
  void run_until_done();
  /// Finalizes the oracle and assembles the fuzzer verdict.
  FuzzVerdict finalize_verdict();

  /// Captures the full world state at the current (barrier-safe) point.
  /// Fails — world untouched — when the scheme or a module lacks
  /// checkpoint support.
  bool save(SnapshotImage& out, std::string* error = nullptr);
  /// Overlays a saved image onto this freshly built world.  Only legal
  /// before any run_to/run_until_done call, and only with an image saved
  /// from this world's spec (the fingerprints must match).  On failure
  /// the world must be discarded.
  bool restore(const SnapshotImage& img, std::string* error = nullptr);

  WorldDigest digest() const;

 private:
  WorldSpec spec_;
  std::unique_ptr<ShardGroup> shards_;
  std::unique_ptr<Logger> log_;
  std::unique_ptr<Network> net_;
  std::vector<Host*> hosts_;  // scenario host-index order (CLOS or fat-tree)
  std::unique_ptr<InvariantOracle> oracle_;
  std::unique_ptr<FaultInjector> inj_;
  Time at_ = 0;  // barrier-safe point: every event with t < at_ has run
};

/// The WorldSpec run_fuzz_scenario() builds for a scenario: same injector
/// seed derivation, same factory override.  Lets tools (run_fuzz
/// --at-time) and tests rebuild the exact world a fuzz verdict came from.
WorldSpec fuzz_world_spec(const FuzzScenario& s, const FuzzOptions& opt);

}  // namespace dcp
