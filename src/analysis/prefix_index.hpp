// Prefix-membership index: the one primitive the section 3.2 checkers share.
//
// Row i is a bitset over transaction indices 0..n-1 with bit j set iff j is
// in the prefix subsequence of transaction i. All rows are packed into one
// word array, n * ceil(n/64) 64-bit words (about n^2/8 bytes), built in one
// pass over every prefix. That is 1/32 of the explicit std::size_t prefixes
// core::Execution already holds, and it turns every membership question into
// an O(1) bit test and every "prefix(j) subset of prefix(i)" question into
// an AND-NOT over the words of row j.
//
// The index has set semantics: duplicate and unsorted prefix entries (which
// only the raw Execution(std::vector<Tx>) constructor can produce) collapse
// to one bit. An entry >= n names no transaction; it gets no bit and is
// kept aside in out_of_range() so the checkers can report it instead of
// indexing past the execution.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/execution.hpp"

namespace analysis {

class PrefixIndex {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  template <core::Replicable App>
  explicit PrefixIndex(const core::Execution<App>& exec)
      : n_(exec.size()),
        words_((n_ + kWordBits - 1) / kWordBits),
        bits_(n_ * words_, 0),
        extent_(n_, 0) {
    for (std::size_t i = 0; i < n_; ++i) {
      Word* row = bits_.data() + i * words_;
      for (std::size_t j : exec.tx(i).prefix) {
        if (j >= n_) {
          out_of_range_.emplace_back(i, j);
          continue;
        }
        row[j / kWordBits] |= Word{1} << (j % kWordBits);
        extent_[i] = std::max(extent_[i], j / kWordBits + 1);
      }
    }
    std::sort(out_of_range_.begin(), out_of_range_.end());
    out_of_range_.erase(
        std::unique(out_of_range_.begin(), out_of_range_.end()),
        out_of_range_.end());
  }

  /// Number of transactions (rows, and bits per row).
  std::size_t size() const { return n_; }
  /// Words per row.
  std::size_t words() const { return words_; }

  /// j in prefix(i). Requires i, j < size().
  bool contains(std::size_t i, std::size_t j) const {
    return (bits_[i * words_ + j / kWordBits] >> (j % kWordBits)) & 1u;
  }

  /// Row i, up to and including its last nonzero word.
  std::span<const Word> row(std::size_t i) const {
    return {bits_.data() + i * words_, extent_[i]};
  }

  /// set is a subset of prefix(i); `set` holds at most words() words.
  bool includes(std::size_t i, std::span<const Word> set) const {
    const Word* r = bits_.data() + i * words_;
    for (std::size_t w = 0; w < set.size(); ++w) {
      if (set[w] & ~r[w]) return false;
    }
    return true;
  }

  /// Calls f(x) for every x in `set` but not in prefix(i), ascending.
  template <class F>
  void for_each_excluded(std::size_t i, std::span<const Word> set, F&& f) const {
    const Word* r = bits_.data() + i * words_;
    for (std::size_t w = 0; w < set.size(); ++w) {
      for (Word m = set[w] & ~r[w]; m != 0; m &= m - 1) {
        f(w * kWordBits + static_cast<std::size_t>(std::countr_zero(m)));
      }
    }
  }

  /// Calls f(j) for every j in prefix(i), ascending.
  template <class F>
  void for_each_member(std::size_t i, F&& f) const {
    const std::span<const Word> r = row(i);
    for (std::size_t w = 0; w < r.size(); ++w) {
      for (Word m = r[w]; m != 0; m &= m - 1) {
        f(w * kWordBits + static_cast<std::size_t>(std::countr_zero(m)));
      }
    }
  }

  /// (i, ref) for every prefix entry ref >= size() of transaction i,
  /// deduplicated, ascending by i then ref.
  const std::vector<std::pair<std::size_t, std::size_t>>& out_of_range() const {
    return out_of_range_;
  }

 private:
  std::size_t n_;
  std::size_t words_;
  std::vector<Word> bits_;          ///< Row-major, words_ per row.
  std::vector<std::size_t> extent_; ///< Per row: last nonzero word + 1.
  std::vector<std::pair<std::size_t, std::size_t>> out_of_range_;
};

}  // namespace analysis
