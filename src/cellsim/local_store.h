// SPE local-store model.
//
// Each SPE owns 256 KB of software-managed scratchpad holding both code
// and data (paper, Section 2). There is no hardware caching: the
// Sweep3D port must budget every byte of the per-chunk working set --
// and twice that with double buffering. This allocator enforces the
// budget: allocations are 128-byte aligned, named (for diagnostics),
// and an overflow throws, which is how the tests pin down the largest
// MK x MMI chunk shape that still fits.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/aligned.h"

namespace cellsweep::cell {

/// LS bytes reserved for SPU code and stack before any data region --
/// the one copy of this budget, shared by every LocalStore and the
/// static linter.
inline constexpr std::size_t kLsCodeReserveBytes = 48 * 1024;

/// Thrown when a working set exceeds the 256 KB local store.
class LocalStoreOverflow : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Bump allocator over one SPE's local store address space. Models
/// occupancy only; actual data lives in host memory.
class LocalStore {
 public:
  struct Region {
    std::string name;
    std::size_t offset;
    std::size_t bytes;
  };

  explicit LocalStore(std::size_t capacity_bytes,
                      std::size_t code_reserve_bytes = kLsCodeReserveBytes);

  /// LS bytes an allocation of @p bytes occupies (rounded up to 128 B).
  static constexpr std::size_t padded(std::size_t bytes) {
    return util::round_up(bytes, util::kCacheLineBytes);
  }

  /// Reserves padded(@p bytes) under @p name. Returns the LS offset.
  /// Throws LocalStoreOverflow if it does not fit.
  std::size_t allocate(const std::string& name, std::size_t bytes);

  /// Releases everything allocated after construction (the code
  /// reservation stays). Used between sweep configurations.
  void reset() noexcept;

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t used() const noexcept { return top_; }
  std::size_t available() const noexcept { return capacity_ - top_; }
  std::size_t high_water() const noexcept { return high_water_; }
  const std::vector<Region>& regions() const noexcept { return regions_; }

  /// Human-readable occupancy map for diagnostics.
  std::string describe() const;

 private:
  std::size_t capacity_;
  std::size_t code_reserve_;
  std::size_t top_;
  std::size_t high_water_;
  std::vector<Region> regions_;
};

}  // namespace cellsweep::cell
