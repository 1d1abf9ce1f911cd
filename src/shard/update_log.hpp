// Timestamp-ordered update log with undo/redo merging.
//
// Paper section 1.2: "When a node receives new information about a
// transaction, no matter when the transaction was initiated, this
// information must be merged into the node's copy of the database ...
// Because all nodes order the transactions in the same way, they will agree
// on the result of merging identical sets of transactions. Also, at all
// times during execution, each node's copy of the database always reflects
// the effects of all the transactions known to that node, as if they were
// run according to the global timestamp order. Since messages about
// different transactions could arrive at a single node out of timestamp
// order, keeping the copy correct entails frequent undoing and redoing of
// transactions."
//
// This class is that mechanism. The invariant after every insert:
//
//     state() == fold(App::apply, App::initial(), entries sorted by ts)
//
// Out-of-order arrivals trigger an undo/redo: conceptually every update
// after the insertion point is undone and then redone on top of the
// newcomer. Implementing literal inverse updates would require apps to
// supply inverses; instead — like the optimizations of [BK]/[SKS], which
// keep history/checkpoint information to avoid recomputation — we keep
// periodic state checkpoints and replay forward from the nearest checkpoint
// at or before the insertion point. The observable result and the
// undo/redo *counts* (what the thrashing analysis consumes) are identical
// to the literal strategy.
//
// Storage (constant factors; DESIGN.md §9): one std::vector<Entry> in
// timestamp order. Every insert binary-searches it and a mid-insert shifts
// the tail; checkpoint positions index it, so compaction and mid-inserts
// shift checkpoints by position arithmetic alone.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "core/timestamp.hpp"
#include "obs/tracer.hpp"
#include "shard/engine_stats.hpp"

namespace shard {

template <core::Replicable App>
class UpdateLog {
 public:
  using State = typename App::State;
  using Update = typename App::Update;

  struct Entry {
    core::Timestamp ts;
    Update update;
  };

  /// A state snapshot: `state` is the fold of the first `pos` retained
  /// entries over the base. Explicit positions (instead of the old implicit
  /// j*interval scheme) are what let compaction shift snapshots in place
  /// and the geometric mode keep a sparse set.
  struct Checkpoint {
    std::size_t pos = 0;
    State state;
  };

  /// `checkpoint_interval` = number of log entries between state snapshots;
  /// 0 disables checkpoints (every mid-insert replays from the base — the
  /// naive strategy, kept for the E10 ablation). `max_checkpoints` bounds
  /// the snapshot count: when exceeded, snapshots are geometrically thinned
  /// (dense near the tail, sparse near the base), keeping O(log n) `State`
  /// copies instead of O(n/interval); 0 keeps every snapshot.
  explicit UpdateLog(std::size_t checkpoint_interval = 32,
                     std::size_t max_checkpoints = 0)
      : checkpoint_interval_(checkpoint_interval),
        max_checkpoints_(max_checkpoints),
        base_(App::initial()),
        state_(base_) {
    // Checkpoint 0 is always the base state.
    checkpoints_.push_back(Checkpoint{0, base_});
  }

  /// Merge an entry, preserving timestamp order. Duplicate timestamps are
  /// rejected (timestamps are globally unique by construction). Returns the
  /// position at which the entry landed.
  std::size_t insert(Entry entry) {
    // Compaction safety: nothing may ever land below the fold point — the
    // stability protocol (promises) guarantees it; a violation here means
    // a protocol bug, not a data race.
    assert(!(entry.ts < base_cut_));
    const std::size_t pos = lower_bound(entry.ts);
    assert(pos == entries_.size() || entries_[pos].ts != entry.ts);
    const core::Timestamp ts = entry.ts;

    if (pos == entries_.size()) {
      // Fast path: in-order arrival; apply directly on the current state.
      entries_.push_back(std::move(entry));
      App::apply(entries_.back().update, state_);
      ++stats_.tail_appends;
      ++stats_.redone_updates;
      trace(obs::EventType::kMergeTailAppend, ts);
      maybe_checkpoint();
      return pos;
    }

    // Out-of-order arrival: every update at position >= pos is "undone" and
    // then redone after the newcomer.
    const std::size_t displaced = entries_.size() - pos;
    stats_.undone_updates += displaced;
    ++stats_.mid_inserts;
    trace(obs::EventType::kMergeMidInsert, ts, displaced);
    trace(obs::EventType::kMergeUndo, ts, displaced);
    entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(pos),
                    std::move(entry));
    invalidate_checkpoints_after(pos);
    recompute_from_checkpoint();
    trace(obs::EventType::kMergeRedo, ts, entries_.size() - pos);
    return pos;
  }

  /// The merged database state (reflects all known updates in ts order).
  const State& state() const { return state_; }

  std::size_t size() const { return entries_.size(); }
  /// Timestamp / update of the retained entry at position `i`.
  const core::Timestamp& ts_at(std::size_t i) const {
    assert(i < entries_.size());
    return entries_[i].ts;
  }
  const Update& update_at(std::size_t i) const {
    assert(i < entries_.size());
    return entries_[i].update;
  }

  /// Timestamps of every known update, in order. This *is* the prefix
  /// subsequence a decision part sees (paper section 3.1, condition (1)).
  std::vector<core::Timestamp> known_timestamps() const {
    std::vector<core::Timestamp> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.ts);
    return out;
  }

  bool contains(const core::Timestamp& ts) const {
    const std::size_t pos = lower_bound(ts);
    return pos != entries_.size() && entries_[pos].ts == ts;
  }

  const EngineStats& stats() const { return stats_; }
  EngineStats& mutable_stats() { return stats_; }

  /// Attach the execution tracer. `node` stamps events with the owning
  /// replica; `now` supplies simulated time (the log itself is clockless —
  /// standalone uses may omit it and events carry t=0).
  void set_tracer(obs::Tracer* tracer, sim::NodeId node,
                  std::function<sim::Time()> now = {}) {
    tracer_ = tracer;
    trace_node_ = node;
    trace_now_ = std::move(now);
  }

  /// Recompute the state from scratch (i.e. from the compaction base) —
  /// test oracle for the checkpointed incremental maintenance.
  State recompute_naive() const {
    State s = base_;
    for (const Entry& e : entries_) App::apply(e.update, s);
    return s;
  }

  /// Discard obsolete information ([SL], cited by the paper): fold every
  /// entry with timestamp < `cut` into the base state and drop it from the
  /// log. SAFE ONLY when the caller has cluster-wide promises that no
  /// update with a smaller timestamp can ever arrive (the Node computes
  /// that stability point from the announcement protocol). Returns the
  /// number of entries folded.
  std::size_t compact_before(const core::Timestamp& cut) {
    if (cut <= base_cut_) return 0;
    const std::size_t n = lower_bound(cut);
    if (n == 0) {
      base_cut_ = cut;
      return 0;
    }
    // Advance the base from the newest snapshot at or below the fold point
    // — O(entries since that snapshot), not O(folded prefix).
    std::size_t j = checkpoints_.size() - 1;
    while (checkpoints_[j].pos > n) --j;
    base_ = std::move(checkpoints_[j].state);
    for (std::size_t i = checkpoints_[j].pos; i < n; ++i) {
      App::apply(entries_[i].update, base_);
    }
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<std::ptrdiff_t>(n));
    base_cut_ = cut;
    folded_count_ += n;
    stats_.entries_folded += n;
    // Snapshots above the fold point still describe valid suffix states —
    // shift their positions instead of rebuilding them by replay.
    std::vector<Checkpoint> kept;
    kept.push_back(Checkpoint{0, base_});
    for (Checkpoint& cp : checkpoints_) {
      if (cp.pos <= n) continue;  // folded into (or below) the new base
      kept.push_back(Checkpoint{cp.pos - n, std::move(cp.state)});
    }
    checkpoints_ = std::move(kept);
    // state_ is unchanged by folding (same updates, same order).
    return n;
  }

  /// Amnesia recovery (sim/crash.hpp): the merged log is volatile and did
  /// not survive the crash. Reset to the application's initial state —
  /// entries, checkpoints, compaction base, everything — so the node can
  /// resynchronize from scratch. Counters are cumulative observability and
  /// deliberately survive (the lifetime undo/redo work really happened).
  void reset_to_initial() {
    entries_.clear();
    base_ = App::initial();
    base_cut_ = core::Timestamp{};
    folded_count_ = 0;
    state_ = base_;
    checkpoints_.clear();
    checkpoints_.push_back(Checkpoint{0, base_});
  }

  /// Stale-disk recovery (sim/crash.hpp, RecoveryMode::kStaleDisk): the
  /// stable log survived the crash but its suffix past `keep_n` retained
  /// entries was lost with the disk — roll back to that stale point. The
  /// compaction base (cluster-stable prefix) is older than any surviving
  /// checkpoint and always survives; snapshots past the cut are dropped and
  /// the working state is rebuilt from the newest surviving one. Truncated
  /// updates are NOT forgotten by the cluster: they re-arrive through
  /// outbox replay and anti-entropy and re-merge via the ordinary undo/redo
  /// path. Counters survive (cumulative observability). Returns the number
  /// of entries dropped.
  std::size_t truncate_suffix(std::size_t keep_n) {
    if (keep_n >= entries_.size()) return 0;
    const std::size_t dropped = entries_.size() - keep_n;
    entries_.resize(keep_n);
    std::size_t keep_cp = checkpoints_.size();
    while (keep_cp > 1 && checkpoints_[keep_cp - 1].pos > keep_n) --keep_cp;
    checkpoints_.resize(keep_cp);
    state_ = checkpoints_.back().state;
    for (std::size_t i = checkpoints_.back().pos; i < entries_.size(); ++i) {
      App::apply(entries_[i].update, state_);
    }
    return dropped;
  }

  /// State snapshots currently held (>= 1: the base is always one).
  std::size_t checkpoints_retained() const { return checkpoints_.size(); }

  /// Entries folded into the base so far.
  std::size_t folded_count() const { return folded_count_; }
  /// All updates ever merged here (retained + folded).
  std::size_t total_merged() const { return entries_.size() + folded_count_; }
  const core::Timestamp& base_cut() const { return base_cut_; }

  /// State reflecting only the entries with timestamp < ts — the complete-
  /// prefix view a serializable transaction positioned at `ts` must see
  /// (mixed-mode extension; paper section 6). Replays from the nearest
  /// checkpoint at or before the cut.
  State state_before(const core::Timestamp& ts) const {
    const std::size_t cut = lower_bound(ts);
    std::size_t j = checkpoints_.size() - 1;
    while (checkpoints_[j].pos > cut) --j;
    State s = checkpoints_[j].state;
    for (std::size_t i = checkpoints_[j].pos; i < cut; ++i) {
      App::apply(entries_[i].update, s);
    }
    return s;
  }

  /// Number of retained entries with timestamp strictly before `ts`.
  std::size_t size_before(const core::Timestamp& ts) const {
    return lower_bound(ts);
  }

 private:
  /// First position with timestamp >= ts.
  std::size_t lower_bound(const core::Timestamp& ts) const {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), ts,
        [](const Entry& e, const core::Timestamp& t) { return e.ts < t; });
    return static_cast<std::size_t>(it - entries_.begin());
  }

  void trace(obs::EventType type, const core::Timestamp& ts,
             std::uint64_t a = 0) const {
    if (!tracer_) return;
    tracer_->record(type, trace_now_ ? trace_now_() : 0.0, trace_node_,
                    ts.logical, ts.node, a);
  }

  void maybe_checkpoint() {
    if (checkpoint_interval_ == 0) return;
    if (entries_.size() - checkpoints_.back().pos >= checkpoint_interval_) {
      checkpoints_.push_back(Checkpoint{entries_.size(), state_});
      ++stats_.checkpoints_taken;
      trace(obs::EventType::kCheckpointTake, entries_.back().ts,
            checkpoints_.size() - 1);
      thin_checkpoints();
    }
  }

  /// Drop snapshots that cover positions > pos (their prefix changed).
  void invalidate_checkpoints_after(std::size_t pos) {
    std::size_t keep = checkpoints_.size();
    while (keep > 1 && checkpoints_[keep - 1].pos > pos) --keep;
    if (keep < checkpoints_.size()) {
      stats_.checkpoints_invalidated += checkpoints_.size() - keep;
      trace(obs::EventType::kCheckpointInvalidate, entries_[pos].ts,
            checkpoints_.size() - keep);
      checkpoints_.resize(keep);
    }
  }

  /// Rebuild state_ by replaying from the newest surviving snapshot (at or
  /// below the insertion point after invalidation); also re-takes
  /// checkpoints passed on the way.
  void recompute_from_checkpoint() {
    const std::size_t start = checkpoints_.back().pos;
    state_ = checkpoints_.back().state;
    std::size_t last_cp = start;
    for (std::size_t i = start; i < entries_.size(); ++i) {
      App::apply(entries_[i].update, state_);
      ++stats_.redone_updates;
      if (checkpoint_interval_ != 0 &&
          (i + 1) - last_cp >= checkpoint_interval_) {
        checkpoints_.push_back(Checkpoint{i + 1, state_});
        last_cp = i + 1;
        ++stats_.checkpoints_taken;
        thin_checkpoints();
      }
    }
  }

  /// Geometric bounded-count mode: once the snapshot count exceeds
  /// max_checkpoints_, walk from the newest snapshot toward the base and
  /// keep only snapshots whose gap to the last kept one is at least
  /// `interval`, doubling the required gap per kept snapshot. Recent
  /// positions (where mid-inserts land) stay densely covered; O(log n)
  /// snapshots survive overall. The base (pos 0) is always kept.
  void thin_checkpoints() {
    if (max_checkpoints_ == 0 || checkpoints_.size() <= max_checkpoints_) {
      return;
    }
    std::vector<Checkpoint> kept;
    kept.push_back(std::move(checkpoints_.back()));
    std::size_t gap = std::max<std::size_t>(checkpoint_interval_, 1);
    for (std::size_t i = checkpoints_.size() - 1; i-- > 1;) {
      if (kept.back().pos - checkpoints_[i].pos >= gap) {
        kept.push_back(std::move(checkpoints_[i]));
        gap *= 2;
      } else {
        ++stats_.checkpoints_thinned;
      }
    }
    kept.push_back(std::move(checkpoints_.front()));
    std::reverse(kept.begin(), kept.end());
    checkpoints_ = std::move(kept);
  }

  std::size_t checkpoint_interval_;
  std::size_t max_checkpoints_;
  /// Folded prefix: the state of every discarded entry, and the timestamp
  /// below which nothing can ever arrive again.
  State base_;
  core::Timestamp base_cut_{};
  std::size_t folded_count_ = 0;
  std::vector<Entry> entries_;  ///< Retained entries, in timestamp order.
  std::vector<Checkpoint> checkpoints_;
  State state_;
  EngineStats stats_;
  // Optional execution tracing (obs/): off is one branch per merge.
  obs::Tracer* tracer_ = nullptr;
  sim::NodeId trace_node_ = 0;
  std::function<sim::Time()> trace_now_;
};

}  // namespace shard
