#pragma once
// FaultPlan: a declarative, deterministic schedule of timed fault actions.
//
// A plan is data, not behaviour — it can be built in code, parsed from the
// `[faults]` section of an experiment config, serialized back, compared and
// hashed.  The FaultInjector (fault_injector.h) executes it against a live
// Network.  Catalogue of actions:
//
//   link_flap      administratively cut a link at `at`, restore `dur` later.
//                  `drop_inflight` chooses whether wire-borne packets die at
//                  cut time (see Channel::set_drop_in_flight_on_cut).
//   drop           BER-style random loss on a link at `rate` for `dur`.
//   corrupt        CRC-failure injection: the frame occupies the wire but is
//                  discarded at the far end, at `rate` for `dur`.
//   ho_loss        control-queue loss at the switch: packets entering the
//                  control queue (header-only packets above all) are dropped
//                  with `rate` — the direct violation of the paper's
//                  lossless-control-plane assumption.
//   buffer_shrink  shrink the switch shared buffer to `frac` of its capacity
//                  at `at`, restore at `at + dur`.
//   blackhole      the port forwards nothing but stays in the ECMP/AR
//                  candidate set (silent failure, no routing withdrawal).
//
// Targets are (switch index, port index) into Network::switches(); kAll
// fans the action out over every switch and/or every port.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.h"

namespace dcp {

enum class FaultKind {
  kLinkFlap,
  kDrop,
  kCorrupt,
  kHoLoss,
  kBufferShrink,
  kBlackhole,
};

const char* fault_kind_name(FaultKind k);

struct FaultAction {
  static constexpr std::uint32_t kAll = UINT32_MAX;

  FaultKind kind = FaultKind::kDrop;
  Time at = 0;        // absolute start time
  Time duration = 0;  // rate faults: 0 = until the end of the run.
                      // link_flap / blackhole: the fault window; must be > 0
                      // to have any effect (duration is their intensity).
  std::uint32_t sw = kAll;
  std::uint32_t port = kAll;
  double rate = 0.0;            // drop / corrupt / ho_loss probability
  double frac = 1.0;            // buffer_shrink: remaining capacity fraction
  bool drop_in_flight = false;  // link_flap: kill wire-borne packets at cut

  /// End of the action's active window; kTimeInfinity when it never reverts.
  Time end() const {
    if (kind == FaultKind::kLinkFlap) return at + duration;  // flap always restores
    return duration > 0 ? at + duration : kTimeInfinity;
  }

  /// True when executing the action cannot change anything: the injector
  /// skips no-ops entirely, so an all-zero-intensity plan is bit-identical
  /// to running with no plan at all.
  bool is_noop() const {
    switch (kind) {
      case FaultKind::kDrop:
      case FaultKind::kCorrupt:
      case FaultKind::kHoLoss:
        return rate <= 0.0;
      case FaultKind::kLinkFlap:
      case FaultKind::kBlackhole:
        return duration <= 0;
      case FaultKind::kBufferShrink:
        return frac >= 1.0;
    }
    return true;
  }

  bool operator==(const FaultAction&) const = default;
};

struct FaultPlan {
  std::vector<FaultAction> actions;

  bool empty() const { return actions.empty(); }
  /// True when at least one action would actually perturb the run.
  bool has_effect() const {
    for (const FaultAction& a : actions) {
      if (!a.is_noop()) return true;
    }
    return false;
  }

  /// Serializes to the `[faults]` config-section body: one action per line,
  /// `kind key=value ...`.  parse_fault_plan() round-trips it exactly.
  std::string to_config_text() const;

  bool operator==(const FaultPlan&) const = default;
};

/// Parses one action line (`link_flap at=100us dur=1ms sw=0 port=2 ...`).
/// On failure returns nullopt and, if `error` is non-null, a message.
std::optional<FaultAction> parse_fault_action(const std::string& line, std::string* error = nullptr);

/// Parses a plan: one action per non-empty line, `#` comments allowed.
std::optional<FaultPlan> parse_fault_plan(const std::string& text, std::string* error = nullptr);

// --- Token grammar shared by every text format ------------------------------
// Fault plans, experiment configs (harness/config.h) and fuzz repro files
// (check/fuzzer.h) read values through these helpers.  A number is accepted
// only when it is the whole token: no surrounding whitespace, no trailing
// characters, no sign on an unsigned field, no overflow and no non-finite
// value.  On failure they return false and leave *out untouched.

bool parse_uint(const std::string& v, std::uint64_t* out);
bool parse_int(const std::string& v, int* out);
bool parse_double(const std::string& v, double* out);
/// A time: a number with an optional unit `ns`, `us`, `ms` or `s` (bare
/// numbers are microseconds), within the picosecond range of Time.
bool parse_time(const std::string& v, Time* out);
/// The shortest decimal, in %g style, that parse_double() reads back as x.
std::string double_to_str(double x);
/// Serializes a time for parse_time(): microseconds, which parse_time()
/// reads back to the same picosecond below 2^51 ps (37 minutes).
std::string time_to_str(Time t);
/// `s` without leading and trailing whitespace.
std::string trim(const std::string& s);

}  // namespace dcp
