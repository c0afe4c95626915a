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
// A repro file is a config file (harness/config.h): the world's canonical
// text — seed, scheme, topology, flows, the injector seed and a [faults]
// section — plus the verdict and event-trace tail as comments.
// `run_fuzz --replay` reads it, or any other config file, back.

#include <cstdint>
#include <string>

#include "harness/world.h"

namespace dcp {

/// The fuzzer's world conventions for a seed: the oracle armed, the
/// injector seed derived from the seed, a 50 ms budget, nothing else.
WorldSpec fuzz_spec(std::uint64_t seed);

/// Derives the full scenario for a seed: a Clos world with explicit flows
/// and a fault plan.  Substream-per-aspect: the flow draw never shifts
/// because the fault draw grew an action, and vice versa.
WorldSpec generate_fuzz_scenario(std::uint64_t seed);

/// Builds the world, runs it to completion or max_time, and reports the
/// oracle's verdict.  Deterministic: depends only on the spec.
FuzzVerdict run_fuzz_scenario(const WorldSpec& s);

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
WorldSpec shrink_fuzz_scenario(const WorldSpec& s, ShrinkStats* stats = nullptr,
                               std::size_t max_runs = 500);

/// The world's config text plus the verdict as comments (see above).
std::string write_fuzz_repro(const WorldSpec& s, const FuzzVerdict& v);

}  // namespace dcp
