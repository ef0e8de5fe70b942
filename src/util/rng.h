// Deterministic, seedable random number generation.
//
// All stochastic inputs in the test suite and the workload generators
// (synthetic cross sections, randomized property tests) flow through
// this splitmix64-based generator so every run of the benches and tests
// is bit-reproducible across platforms.
#pragma once

#include <cstdint>
#include <limits>

namespace cellsweep::util {

/// splitmix64's output permutation, also a standalone mixer for
/// chaining key material into one decision seed (sim::FaultPlan,
/// core::ArrivalPlan).
constexpr std::uint64_t splitmix64_mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// splitmix64: tiny, high-quality, fully deterministic PRNG.
/// Satisfies std::uniform_random_bit_generator.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr SplitMix64(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
      : state_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() {
    return splitmix64_mix(state_ += 0x9e3779b97f4a7c15ULL);
  }

  /// Uniform double in [0, 1).
  constexpr double next_double() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double next_double(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

  /// Uniform integer in [0, n).
  constexpr std::uint64_t next_below(std::uint64_t n) {
    return n == 0 ? 0 : (*this)() % n;
  }

 private:
  std::uint64_t state_;
};

}  // namespace cellsweep::util
