// Interned prefix subsequences: O(#nodes) references to O(history) sets.
//
// The paper's section 3.3 leans on [BK]/[SKS]-style "optimized storage
// structures" to make timestamp-ordered merging practical. The analogous
// optimization on OUR hot path is the per-transaction prefix record: a
// decision's prefix subsequence (section 3.1) is the set of every update
// merged at the origin at decision time, which grows linearly with history —
// materializing it per submit makes a run O(n^2) in both time and retained
// timestamps.
//
// The key observation: a node merges exactly what the broadcast layer has
// delivered, and deliveries are per-origin sequence numbers. So the prefix
// set is fully determined by
//
//   * a per-origin count ("the first contiguous[o] broadcasts of origin o"),
//   * a small exception list for out-of-order holes (non-causal delivery
//     can deliver seq 7 before 5), and
//   * for serializable decisions, the reserved position: only predecessors
//     with timestamp < cut belong to the complete prefix.
//
// That is O(#nodes + #holes) per record instead of O(history). Analysis
// expands it once per record: shard::assemble_execution maps (origin, seq)
// pairs straight to serial indices (origin o's seq-th broadcast is o's
// (seq-1)-th originated record), and `expand()` gives the same set as
// timestamps through a resolver — reported checker semantics are
// bit-identical to the explicit vectors.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "core/timestamp.hpp"

namespace core {

/// Compact reference to a prefix subsequence. Equality is structural, which
/// is exactly set equality: contiguous counts are canonical and the
/// exception list is kept sorted by the producer.
struct PrefixRef {
  /// contiguous[o] = the first `contiguous[o]` broadcasts of origin o are
  /// all in the prefix.
  std::vector<std::uint64_t> contiguous;
  /// Delivered (origin, seq) pairs beyond contiguous[origin] — out-of-order
  /// holes under non-causal delivery. Sorted; empty in causal mode.
  std::vector<std::pair<NodeId, std::uint64_t>> extras;
  /// Serializable (complete-prefix) decisions: the reserved position. Only
  /// members with timestamp < *cut are in the prefix.
  std::optional<Timestamp> cut;

  /// Maps (origin, 1-based broadcast seq) to that broadcast's timestamp.
  using Resolver =
      std::function<Timestamp(NodeId origin, std::uint64_t origin_seq)>;

  /// Delivered timestamps recorded, before any cut filter. Equals the
  /// expanded size for ordinary (non-serializable) records.
  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const std::uint64_t c : contiguous) n += c;
    return n + extras.size();
  }

  /// Storage-footprint proxy: slots this reference retains, independent of
  /// how much history it denotes (the E20 RSS metric).
  std::size_t slots() const { return contiguous.size() + extras.size(); }

  /// Materialize the explicit timestamp set, ascending. This is the lazy
  /// half of the interning bargain: producers pay O(#nodes), and only the
  /// analysis layer ever pays O(|prefix|).
  std::vector<Timestamp> expand(const Resolver& resolve) const {
    std::vector<Timestamp> out;
    out.reserve(static_cast<std::size_t>(count()));
    for (std::size_t o = 0; o < contiguous.size(); ++o) {
      for (std::uint64_t s = 1; s <= contiguous[o]; ++s) {
        out.push_back(resolve(static_cast<NodeId>(o), s));
      }
    }
    for (const auto& [origin, seq] : extras) out.push_back(resolve(origin, seq));
    if (cut) {
      std::erase_if(out, [this](const Timestamp& t) { return !(t < *cut); });
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  friend bool operator==(const PrefixRef&, const PrefixRef&) = default;
};

}  // namespace core
