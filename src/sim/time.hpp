// Simulated-time primitives.
//
// All simulated clocks in the library are 64-bit nanosecond counts starting
// at 0 when an Engine is constructed. Helpers convert to/from seconds for
// reporting and rate arithmetic.
#pragma once

#include <cstdint>

namespace e2e::sim {

/// Simulated time in nanoseconds since engine start.
using SimTime = std::uint64_t;

/// Simulated duration in nanoseconds.
using SimDuration = std::uint64_t;

inline constexpr SimDuration kNanosecond = 1;
inline constexpr SimDuration kMicrosecond = 1'000ULL;
inline constexpr SimDuration kMillisecond = 1'000'000ULL;
inline constexpr SimDuration kSecond = 1'000'000'000ULL;

/// Largest representable time; used as "never".
inline constexpr SimTime kTimeInfinity = ~SimTime{0};

/// Converts a simulated time/duration to (double) seconds.
constexpr double to_seconds(SimDuration t) noexcept {
  return static_cast<double>(t) / 1e9;
}

/// Converts (double) seconds to a simulated duration, saturating at 0.
constexpr SimDuration from_seconds(double seconds) noexcept {
  if (seconds <= 0.0) return 0;
  return static_cast<SimDuration>(seconds * 1e9);
}

}  // namespace e2e::sim
