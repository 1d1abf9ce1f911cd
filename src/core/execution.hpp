// Formal executions (paper section 3.1).
//
// "An execution of a set of transaction instances consists of a serial
// ordering T for the transaction instances, together with a sequence A of
// updates, a sequence E of sets of external actions, a sequence I of finite
// sequences of integers, and two sequences, s and t, of database states",
// subject to:
//   (1) I_i is a subsequence of the prefix {1, ..., i-1};
//   (2) t_i is the result of the updates designated by I_{i+1} applied to s0
//       (the *apparent* state T_{i+1} sees when its decision part runs);
//   (3) (A_i, E_i) = D_{T_i}(t_{i-1})  — update and external actions are
//       determined by the observed state;
//   (4) s_i is the result of A_1 ... A_i applied to s0 (the *actual* state).
//
// This file is the executable form of that object. Indices are 0-based in
// code; the class stores, per transaction instance: its timestamp, origin
// node, real (simulated) initiation time, the request that was submitted,
// the prefix subsequence actually seen, the update generated, and the
// external actions triggered. Apparent and actual states are derived on
// demand by replaying updates, exactly per (2) and (4).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/model.hpp"
#include "core/timestamp.hpp"
#include "sim/delay.hpp"

namespace core {

/// One transaction instance in an execution's serial order.
template <Replicable App>
struct TxInstance {
  Timestamp ts;              ///< Global timestamp; defines the serial order.
  NodeId origin = 0;         ///< Node whose decision part ran.
  sim::Time real_time = 0.0; ///< Initiation time (timed executions, §3.2).
  typename App::Request request;      ///< What the client submitted.
  std::vector<std::size_t> prefix;    ///< Sorted indices of transactions seen.
  typename App::Update update;        ///< A_i, chosen by the decision part.
  std::vector<ExternalAction> external_actions;  ///< E_i.
};

/// An execution in the paper's sense, with derived-state queries.
template <Replicable App>
class Execution {
 public:
  using State = typename App::State;
  using Tx = TxInstance<App>;

  Execution() = default;
  explicit Execution(std::vector<Tx> txs) : txs_(std::move(txs)) {}

  /// Append the next transaction in serial order. The prefix must reference
  /// only earlier indices; it is sorted (unless it already is) and
  /// deduplicated here.
  void append(Tx tx) {
    if (!std::is_sorted(tx.prefix.begin(), tx.prefix.end())) {
      std::sort(tx.prefix.begin(), tx.prefix.end());
    }
    tx.prefix.erase(std::unique(tx.prefix.begin(), tx.prefix.end()),
                    tx.prefix.end());
    if (!tx.prefix.empty() && tx.prefix.back() >= txs_.size()) {
      throw std::invalid_argument(
          "prefix subsequence references a non-preceding transaction");
    }
    txs_.push_back(std::move(tx));
  }

  std::size_t size() const { return txs_.size(); }
  bool empty() const { return txs_.empty(); }
  const Tx& tx(std::size_t i) const { return txs_.at(i); }
  const std::vector<Tx>& transactions() const { return txs_; }

  /// Result of applying the updates at `indices` (ascending) to s0.
  State state_of_subsequence(const std::vector<std::size_t>& indices) const {
    State s = App::initial();
    for (std::size_t idx : indices) App::apply(txs_.at(idx).update, s);
    return s;
  }

  /// Apparent state *before* transaction i: what its decision part saw
  /// (paper t_{i-1}; condition (2)).
  State apparent_state_before(std::size_t i) const {
    return state_of_subsequence(txs_.at(i).prefix);
  }

  /// Calls f(i, apparent_state_before(i)) for every i, ascending, in one
  /// pass. Each prefix is folded on from the longest leading run it shares
  /// with the previously visited prefix, restored from the state snapshot
  /// taken at the last multiple of kSnapshotEvery applied entries at or
  /// below that run, so a run of transactions whose prefixes grow by a few
  /// entries each costs a few App::apply calls per transaction instead of
  /// |prefix|. This is UpdateLog's checkpoint replay applied to the
  /// oracle. Runs are compared as sequences, not sets, so the states equal
  /// the plain fold even for the unsorted or duplicated prefixes the raw
  /// constructor admits. A transaction whose prefix names a non-existent
  /// transaction (index >= size(), also only from the raw constructor) has
  /// no apparent state and is not visited.
  template <class F>
  void for_each_apparent_state(F&& f) const {
    State s = App::initial();
    std::span<const std::size_t> applied;  // the entries folded into s
    // snapshots[k]: the fold of applied[0, (k + 1) * kSnapshotEvery).
    std::vector<State> snapshots;
    const auto missing = [this](std::size_t j) { return j >= txs_.size(); };
    for (std::size_t i = 0; i < txs_.size(); ++i) {
      const std::vector<std::size_t>& prefix = txs_[i].prefix;
      const std::size_t common = static_cast<std::size_t>(
          std::mismatch(applied.begin(), applied.end(), prefix.begin(),
                        prefix.end())
              .first -
          applied.begin());
      if (std::any_of(prefix.begin() + common, prefix.end(), missing)) {
        continue;
      }
      std::size_t from = applied.size();
      if (common < applied.size()) {
        const std::size_t keep = common / kSnapshotEvery;
        snapshots.erase(snapshots.begin() + static_cast<std::ptrdiff_t>(keep),
                        snapshots.end());
        s = keep == 0 ? App::initial() : snapshots.back();
        from = keep * kSnapshotEvery;
      }
      for (std::size_t k = from; k < prefix.size(); ++k) {
        App::apply(txs_[prefix[k]].update, s);
        if ((k + 1) % kSnapshotEvery == 0) snapshots.push_back(s);
      }
      applied = prefix;
      f(i, static_cast<const State&>(s));
    }
  }

  /// Apparent state *after* transaction i: T_i(t, t) where t is the apparent
  /// state before (the state T_i "believes will exist after the update").
  State apparent_state_after(std::size_t i) const {
    State s = apparent_state_before(i);
    App::apply(txs_.at(i).update, s);
    return s;
  }

  /// Actual state before transaction i: A_0 ... A_{i-1} applied to s0
  /// (paper s_i for the 1-based i; condition (4)).
  State actual_state_before(std::size_t i) const {
    State s = App::initial();
    for (std::size_t j = 0; j < i; ++j) App::apply(txs_[j].update, s);
    return s;
  }

  /// Actual state after transaction i.
  State actual_state_after(std::size_t i) const {
    State s = actual_state_before(i);
    App::apply(txs_.at(i).update, s);
    return s;
  }

  /// All actual states s_0 ... s_n (n = size()), computed in one pass.
  /// s_0 is the initial state; s_{i+1} is the state after transaction i.
  std::vector<State> actual_states() const {
    std::vector<State> states;
    states.reserve(txs_.size() + 1);
    State s = App::initial();
    states.push_back(s);
    for (const Tx& tx : txs_) {
      App::apply(tx.update, s);
      states.push_back(s);
    }
    return states;
  }

  /// Final actual state.
  State final_state() const { return actual_state_before(txs_.size()); }

  /// Number of preceding transactions NOT seen by transaction i. Transaction
  /// i is k-complete (paper §3.2) iff missing_count(i) <= k.
  std::size_t missing_count(std::size_t i) const {
    return i - txs_.at(i).prefix.size();
  }

  /// Max over all transactions of missing_count — the smallest k for which
  /// the whole execution is k-complete.
  std::size_t max_missing() const {
    std::size_t k = 0;
    for (std::size_t i = 0; i < txs_.size(); ++i)
      k = std::max(k, missing_count(i));
    return k;
  }

  /// Truncate to the first n transactions (used by induction-style checks).
  Execution prefix_execution(std::size_t n) const {
    return Execution(std::vector<Tx>(txs_.begin(), txs_.begin() + n));
  }

 private:
  /// Applied entries between two for_each_apparent_state snapshots.
  static constexpr std::size_t kSnapshotEvery = 32;

  std::vector<Tx> txs_;
};

}  // namespace core
