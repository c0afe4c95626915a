#pragma once
// Simulated-time definitions.
//
// All simulated time is an int64 count of picoseconds.  Picosecond
// granularity keeps serialization times exact for every link speed we model
// (100 Gbps = 80 ps/byte, 400 Gbps = 20 ps/byte) while still allowing more
// than 100 days of simulated time before overflow.

#include <cstdint>

namespace dcp {

using Time = std::int64_t;  // picoseconds

inline constexpr Time kPicosecond = 1;
inline constexpr Time kNanosecond = 1'000;
inline constexpr Time kMicrosecond = 1'000'000;
inline constexpr Time kMillisecond = 1'000'000'000;
inline constexpr Time kSecond = 1'000'000'000'000;

/// A sentinel meaning "never" / "no deadline".
inline constexpr Time kTimeInfinity = INT64_MAX;

constexpr Time nanoseconds(double ns) { return static_cast<Time>(ns * kNanosecond); }
constexpr Time microseconds(double us) { return static_cast<Time>(us * kMicrosecond); }
constexpr Time milliseconds(double ms) { return static_cast<Time>(ms * kMillisecond); }
constexpr Time seconds(double s) { return static_cast<Time>(s * kSecond); }

constexpr double to_us(Time t) { return static_cast<double>(t) / kMicrosecond; }
constexpr double to_ms(Time t) { return static_cast<double>(t) / kMillisecond; }

/// Bandwidth expressed as picoseconds per byte, the natural unit for
/// computing serialization delays with integer arithmetic.
struct Bandwidth {
  std::int64_t ps_per_byte = 0;

  static constexpr Bandwidth gbps(double g) {
    // g Gbit/s = g/8 GByte/s = 8000/g ps per byte.
    return Bandwidth{static_cast<std::int64_t>(8000.0 / g)};
  }
  constexpr Time serialize(std::int64_t bytes) const { return bytes * ps_per_byte; }
  constexpr double as_gbps() const {
    return ps_per_byte == 0 ? 0.0 : 8000.0 / static_cast<double>(ps_per_byte);
  }
  constexpr double bits_per_sec() const { return as_gbps() * 1e9; }
  constexpr bool operator==(const Bandwidth&) const = default;
};

}  // namespace dcp
