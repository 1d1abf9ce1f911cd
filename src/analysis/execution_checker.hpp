// Checkers for the system-side conditions of paper section 3.
//
// These validate that a concrete execution (usually assembled from a
// Cluster run) really satisfies the properties the system claims to
// guarantee: the prefix subsequence condition of section 3.1 and the
// refinements of section 3.2 (transitivity, k-completeness, atomicity,
// centralization, orderliness, t-bounded delay). They are the
// "Jepsen-style" half of the reproduction: nothing here trusts the engine —
// every condition is re-derived from the recorded trace by replaying
// updates.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <sstream>
#include <vector>

#include "analysis/messages.hpp"
#include "analysis/prefix_index.hpp"
#include "analysis/report.hpp"
#include "core/execution.hpp"

namespace analysis {

/// Conditions (1)–(4) of section 3.1, plus condition (3)'s determinism: for
/// every transaction instance, re-running its decision part against the
/// reconstructed apparent state must reproduce exactly the update and
/// external actions the original run recorded. The apparent states come
/// from one Execution::for_each_apparent_state pass. A transaction whose
/// prefix names no transaction (an entry >= size(), which only the raw
/// constructor admits) has no apparent state: it is reported under (1) and
/// (2)/(3) are skipped for it alone.
template <core::Application App>
CheckReport check_prefix_subsequence_condition(
    const core::Execution<App>& exec) {
  CheckReport report(msg::kPrefixSubsequenceTitle);
  // (1): I_i is a subsequence of {0..i-1}, strictly increasing. Checked
  // for every transaction below `structured`, ahead of its (2)+(3).
  std::size_t structured = 0;
  const auto check_structure = [&](std::size_t end) {
    for (; structured < end; ++structured) {
      const std::size_t i = structured;
      const auto& prefix = exec.tx(i).prefix;
      for (std::size_t j = 0; j < prefix.size(); ++j) {
        if (prefix[j] >= i) {
          report.add_violation(msg::prefix_non_preceding(i, prefix[j]), i);
        }
        if (j > 0 && prefix[j] <= prefix[j - 1]) {
          report.add_violation(msg::prefix_not_increasing(i, j), i);
        }
      }
    }
  };
  // (2)+(3): the recorded update/external actions must equal what the
  // decision part yields on the apparent state t = result of the prefix
  // subsequence applied to s0.
  exec.for_each_apparent_state(
      [&](std::size_t i, const typename App::State& apparent) {
        check_structure(i + 1);
        const auto& tx = exec.tx(i);
        if (!App::well_formed(apparent)) {
          report.add_violation(msg::apparent_ill_formed(i), i);
        }
        const core::DecisionResult<typename App::Update> redo =
            App::decide(tx.request, apparent);
        if (!(redo.update == tx.update)) {
          report.add_violation(msg::update_mismatch(i), i);
        }
        if (redo.external_actions != tx.external_actions) {
          report.add_violation(msg::actions_mismatch(i), i);
        }
      });
  check_structure(exec.size());
  // (4): actual states must be well-formed (updates preserve
  // well-formedness; s0 is well-formed).
  typename App::State s = App::initial();
  if (!App::well_formed(s)) report.add_violation(msg::initial_ill_formed());
  for (std::size_t i = 0; i < exec.size(); ++i) {
    App::apply(exec.tx(i).update, s);
    if (!App::well_formed(s)) {
      report.add_violation(msg::actual_ill_formed(i), i);
    }
  }
  return report;
}

/// Section 3.2 transitivity: "If T'' is in the prefix subsequence of T' and
/// T' is in the prefix subsequence of T, then T'' is in the prefix
/// subsequence of T." Checked as prefix-closure, prefix(j) ⊆ prefix(i) for
/// every j ∈ prefix(i), one AND-NOT over the words of row j each. A prefix
/// entry naming no transaction (>= size) makes the execution non-transitive.
inline bool is_transitive(const PrefixIndex& index) {
  if (!index.out_of_range().empty()) return false;
  for (std::size_t i = 0; i < index.size(); ++i) {
    bool closed = true;
    index.for_each_member(i, [&](std::size_t j) {
      closed = closed && index.includes(i, index.row(j));
    });
    if (!closed) return false;
  }
  return true;
}

template <core::Application App>
bool is_transitive(const core::Execution<App>& exec) {
  return is_transitive(PrefixIndex(exec));
}

/// Every (i, j, jj) triple violating transitivity, ascending in i, then j,
/// then jj; then, per transaction, each prefix entry naming no transaction.
template <core::Application App>
CheckReport check_transitive(const core::Execution<App>& exec) {
  CheckReport report("transitivity (§3.2)");
  const PrefixIndex index(exec);
  const auto& bad_refs = index.out_of_range();
  auto bad = bad_refs.begin();
  for (std::size_t i = 0; i < index.size(); ++i) {
    index.for_each_member(i, [&](std::size_t j) {
      index.for_each_excluded(i, index.row(j), [&](std::size_t jj) {
        std::ostringstream os;
        os << "tx " << i << " sees tx " << j << " which sees tx " << jj
           << ", but " << jj << " is not in tx " << i << "'s prefix";
        report.add_violation(os.str(), i);
      });
    });
    for (; bad != bad_refs.end() && bad->first == i; ++bad) {
      report.add_violation(msg::prefix_non_preceding(i, bad->second), i);
    }
  }
  return report;
}

/// Section 3.2: "transaction T is said to be k-complete in execution e
/// provided that, in e, T sees the results of all but at most k of the
/// preceding transactions."
template <core::Application App>
bool is_k_complete(const core::Execution<App>& exec, std::size_t i,
                   std::size_t k) {
  return exec.missing_count(i) <= k;
}

/// Section 3.1 atomicity of a consecutive index range [first, last]:
/// "(a) each U_j includes each of the other U_k, k < j, in its prefix
/// subsequence, and (b) all U_j have the same subset of the transactions
/// with indices less than `first` in their prefix subsequences."
template <core::Application App>
bool is_atomic(const core::Execution<App>& exec, std::size_t first,
               std::size_t last) {
  if (first > last || last >= exec.size()) return false;
  const PrefixIndex index(exec);
  for (std::size_t j = first; j <= last; ++j) {
    // (a): must contain first..j-1.
    for (std::size_t kk = first; kk < j; ++kk) {
      if (!index.contains(j, kk)) return false;
    }
    // (b): the part below `first` must equal that of `first` itself.
    for (std::size_t idx = 0; idx < first; ++idx) {
      if (index.contains(j, idx) != index.contains(first, idx)) return false;
    }
  }
  return true;
}

/// Section 3.2 centralization: "each of the transactions in G includes in
/// its prefix subsequence all the others from G which precede it."
/// `in_group` classifies transactions by their request. The members seen so
/// far are one bitset, tested against each new member's row word by word.
template <core::Application App>
bool is_centralized(
    const core::Execution<App>& exec, const PrefixIndex& index,
    const std::function<bool(const typename App::Request&)>& in_group) {
  std::vector<PrefixIndex::Word> members(index.words(), 0);
  for (std::size_t i = 0; i < exec.size(); ++i) {
    if (!in_group(exec.tx(i).request)) continue;
    if (!index.includes(i, members)) return false;
    members[i / PrefixIndex::kWordBits] |= PrefixIndex::Word{1}
                                           << (i % PrefixIndex::kWordBits);
  }
  return true;
}

template <core::Application App>
bool is_centralized(
    const core::Execution<App>& exec,
    const std::function<bool(const typename App::Request&)>& in_group) {
  return is_centralized<App>(exec, PrefixIndex(exec), in_group);
}

/// Section 3.2: "if the order of real times is monotonic, we say that the
/// timed execution is orderly."
template <core::Application App>
bool is_orderly(const core::Execution<App>& exec) {
  for (std::size_t i = 1; i < exec.size(); ++i) {
    if (exec.tx(i).real_time < exec.tx(i - 1).real_time) return false;
  }
  return true;
}

/// Section 3.2 t-bounded delay: "the prefix subsequence of each transaction
/// T includes every transaction in the prefix whose real time is at least t
/// smaller than T's real time."
template <core::Application App>
bool has_t_bounded_delay(const core::Execution<App>& exec, double t) {
  const PrefixIndex index(exec);
  for (std::size_t i = 0; i < exec.size(); ++i) {
    const auto& tx = exec.tx(i);
    for (std::size_t j = 0; j < i; ++j) {
      if (exec.tx(j).real_time <= tx.real_time - t && !index.contains(i, j)) {
        return false;
      }
    }
  }
  return true;
}

/// Smallest t for which the execution has t-bounded delay (the empirical
/// "information staleness" of a run; swept in experiment E7).
template <core::Application App>
double min_bounded_delay(const core::Execution<App>& exec) {
  const PrefixIndex index(exec);
  double t = 0.0;
  for (std::size_t i = 0; i < exec.size(); ++i) {
    const auto& tx = exec.tx(i);
    for (std::size_t j = 0; j < i; ++j) {
      if (!index.contains(i, j)) {
        t = std::max(t, tx.real_time - exec.tx(j).real_time);
      }
    }
  }
  return t;
}

/// Histogram of missing-prefix sizes: result[i] = missing_count(i). The raw
/// material for the section 1.3 "probability that transactions are
/// k-complete" analysis (experiment E9).
template <core::Application App>
std::vector<std::size_t> missing_counts(const core::Execution<App>& exec) {
  std::vector<std::size_t> out(exec.size());
  for (std::size_t i = 0; i < exec.size(); ++i) out[i] = exec.missing_count(i);
  return out;
}

}  // namespace analysis
