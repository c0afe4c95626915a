#pragma once
// Deterministic random-number utilities.  Every stochastic component takes
// a seed so experiments are exactly reproducible.

#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <sstream>
#include <vector>

namespace dcp {

/// 64-bit mix hash used for ECMP and seed derivation (deterministic across
/// runs, good spread).
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : gen_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(gen_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(gen_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen_);
  }

  /// Exponentially distributed value with the given mean (for Poisson
  /// arrival processes).
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(gen_);
  }

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  /// Picks a uniformly random element index of a non-empty range.
  std::size_t pick_index(std::size_t n) {
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  std::mt19937_64& engine() { return gen_; }

  /// Derives an independent deterministic stream from a seed and a tag.
  /// Components with an optional stochastic feature (e.g. fault injection)
  /// draw from their own substream so enabling the feature never perturbs
  /// the draws of the base stream.
  static Rng substream(std::uint64_t seed, std::uint64_t tag) {
    return Rng(mix64(seed ^ mix64(tag)));
  }

  /// Checkpoint hook (sim/snapshot.h): the engine round-trips through its
  /// standard-guaranteed textual iostream representation.  Templated so
  /// this low-level header needs no dependency on the snapshot layer.
  template <typename IO>
  void checkpoint(IO& io) {
    std::string s;
    if (io.saving()) {
      std::ostringstream os;
      os << gen_;
      s = os.str();
    }
    io.str(s);
    if (!io.saving() && io.ok()) {
      std::istringstream is(s);
      is >> gen_;
    }
  }

 private:
  std::mt19937_64 gen_;
};

}  // namespace dcp
