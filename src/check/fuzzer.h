#pragma once
// ScenarioFuzzer: derives a random topology x workload x scheme x FaultPlan
// scenario from a single seed, runs it with the InvariantOracle armed, and
// — when an invariant breaks — shrinks the scenario to a minimal repro.
//
// Everything is a pure function of the seed: scenario generation pulls from
// independent Rng substreams per aspect (scheme / topology / workload /
// faults), the run itself is an ordinary deterministic simulation, and the
// shrinker only ever re-runs candidate scenarios.  Same seed, same binary
// => same scenario, same verdict, byte-identical repro file — regardless of
// how many fuzz trials run in parallel around it.
//
// Repro files are self-contained: a [scenario] section (seed + topology +
// flows), a [faults] section in the exact fault_plan.cpp grammar, and the
// verdict + event-trace tail as comments.  parse_fuzz_scenario() reads the
// file back for --replay.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "harness/scheme.h"

namespace dcp {

struct FuzzFlow {
  int src = 0;  // host index into the scenario's CLOS topology
  int dst = 1;
  std::uint64_t bytes = 64 * 1024;
  std::uint64_t msg_bytes = 0;  // 0 = one message for the whole flow
  Time start = 0;

  bool operator==(const FuzzFlow&) const = default;
};

struct FuzzScenario {
  std::uint64_t seed = 1;  // provenance only; the run never draws from it
  SchemeKind scheme = SchemeKind::kDcp;
  int spines = 1;
  int leaves = 2;
  int hosts_per_leaf = 1;
  /// 0 = two-tier CLOS from spines/leaves/hosts_per_leaf (the historical
  /// pool, so existing seeds and golden digests never shift); > 0 = k-ary
  /// fat-tree with k = fattree_k (even), ignoring the CLOS fields.  The
  /// CLOS host-index range is always a subset of the fat-tree's (k >= 2
  /// gives >= 2 hosts, and generated indices stay below num_hosts()), so a
  /// generated scenario can be re-pooled onto a fat-tree by setting this.
  int fattree_k = 0;
  Time max_time = milliseconds(50);
  std::vector<FuzzFlow> flows;
  FaultPlan faults;

  int num_hosts() const {
    return fattree_k > 0 ? fattree_k * fattree_k * fattree_k / 4 : leaves * hosts_per_leaf;
  }
  bool operator==(const FuzzScenario&) const = default;
};

/// Derives the full scenario for a seed.  Substream-per-aspect: the flow
/// draw never shifts because the fault draw grew an action, and vice versa.
FuzzScenario generate_fuzz_scenario(std::uint64_t seed);

struct FuzzOptions {
  /// Replaces the scheme's transport factory (broken test doubles; see
  /// check/broken.h).  The scenario's scheme still picks the switch config.
  std::shared_ptr<TransportFactory> factory_override;
};

struct FuzzVerdict {
  bool violated = false;
  std::string invariant;  // first violation's stable id
  std::string message;    // InvariantOracle::summary()
  Time at = 0;
  std::size_t num_violations = 0;
  bool all_complete = false;  // every flow finished inside max_time
  std::string trace;          // event-ring tail up to the first violation
};

/// Builds the scenario's fabric, arms the oracle, runs to completion or
/// max_time, and reports.  Deterministic: depends only on (scenario, opt).
FuzzVerdict run_fuzz_scenario(const FuzzScenario& s, const FuzzOptions& opt = {});

struct ShrinkStats {
  std::size_t runs = 0;      // candidate scenarios executed
  std::size_t actions_before = 0;
  std::size_t actions_after = 0;
  std::size_t flows_before = 0;
  std::size_t flows_after = 0;
};

/// Minimizes a violating scenario while preserving its first-violation
/// invariant id: ddmin over fault actions, then flow removal, then
/// byte/message halving, then max_time halving.  Every candidate is one
/// cold run.  Returns the input unchanged when it does not violate.
/// Bounded by `max_runs` re-runs.
FuzzScenario shrink_fuzz_scenario(const FuzzScenario& s, const FuzzOptions& opt = {},
                                  ShrinkStats* stats = nullptr, std::size_t max_runs = 500);

/// Serializes scenario + verdict to the repro format described above.
std::string write_fuzz_repro(const FuzzScenario& s, const FuzzVerdict& v);

/// Parses a repro file (or just its [scenario]/[faults] sections) back.
std::optional<FuzzScenario> parse_fuzz_scenario(const std::string& text,
                                                std::string* error = nullptr);

}  // namespace dcp
