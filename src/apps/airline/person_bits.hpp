// The seen-set behind the linear well-formedness passes of the basic and
// the timestamped airline (airline.cpp, timestamped.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "apps/airline/airline.hpp"  // Person

namespace apps::airline::detail {

/// A set of person ids: one bit per id in 64-bit words, sized to the
/// largest id. Only worth it while the ids are dense — see fits().
class PersonBits {
 public:
  /// Bitset words allowed beyond one per list entry. Past that the ids are
  /// sparse (say, near UINT32_MAX) and callers sort instead, so the bitset
  /// never costs more than one word per entry plus this much.
  static constexpr std::size_t kSlackWords = 64;

  static bool fits(Person max_id, std::size_t entries) {
    return max_id / 64 < entries + kSlackWords;
  }

  explicit PersonBits(Person max_id) : words_(max_id / 64 + 1) {}

  /// Marks p; false if p was already marked.
  bool insert(Person p) {
    std::uint64_t& w = words_[p / 64];
    const std::uint64_t bit = std::uint64_t{1} << (p % 64);
    const bool fresh = (w & bit) == 0;
    w |= bit;
    return fresh;
  }
  bool contains(Person p) const {
    return (words_[p / 64] >> (p % 64)) & 1;
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace apps::airline::detail
