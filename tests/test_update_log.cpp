// The SHARD undo/redo merge engine: timestamp-ordered insertion with
// checkpointed recomputation must always equal a naive full replay (the
// section 1.2 invariant: "each node's copy of the database always reflects
// the effects of all the transactions known to that node, as if they were
// run according to the global timestamp order").
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "apps/airline/airline.hpp"
#include "shard/update_log.hpp"
#include "sim/rng.hpp"

namespace {

using apps::airline::SmallAirline;
using apps::airline::Update;
using core::Timestamp;
using Log = shard::UpdateLog<SmallAirline>;

Update req(apps::airline::Person p) {
  return Update{Update::Kind::kRequest, p};
}
Update up(apps::airline::Person p) { return Update{Update::Kind::kMoveUp, p}; }
Update down(apps::airline::Person p) {
  return Update{Update::Kind::kMoveDown, p};
}
Update cancel(apps::airline::Person p) {
  return Update{Update::Kind::kCancel, p};
}

TEST(UpdateLog, TailAppendsApplyDirectly) {
  Log log(4);
  log.insert({Timestamp{1, 0}, req(1)});
  log.insert({Timestamp{2, 0}, req(2)});
  log.insert({Timestamp{3, 0}, up(1)});
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.state().assigned, (std::vector<apps::airline::Person>{1}));
  EXPECT_EQ(log.state().waiting, (std::vector<apps::airline::Person>{2}));
  EXPECT_EQ(log.stats().tail_appends, 3u);
  EXPECT_EQ(log.stats().mid_inserts, 0u);
  EXPECT_EQ(log.stats().undone_updates, 0u);
}

TEST(UpdateLog, OutOfOrderInsertTriggersUndoRedo) {
  Log log(4);
  // Arrive: request(2) at ts 2, move-up picks... then request(1) at ts 1
  // arrives late. State must equal ts-order replay: req(1), req(2), up(2).
  log.insert({Timestamp{2, 0}, req(2)});
  log.insert({Timestamp{3, 0}, up(2)});
  log.insert({Timestamp{1, 0}, req(1)});
  EXPECT_EQ(log.state().assigned, (std::vector<apps::airline::Person>{2}));
  EXPECT_EQ(log.state().waiting, (std::vector<apps::airline::Person>{1}));
  EXPECT_EQ(log.stats().mid_inserts, 1u);
  EXPECT_EQ(log.stats().undone_updates, 2u);  // req(2), up(2) displaced
}

TEST(UpdateLog, LateArrivalChangesOutcomeDeterministically) {
  // The classic SHARD scenario: a move-up decided elsewhere lands before
  // the cancel that should have preceded it.
  Log log(0);  // no checkpoints: full replay path
  log.insert({Timestamp{1, 0}, req(1)});
  log.insert({Timestamp{3, 0}, up(1)});
  EXPECT_TRUE(log.state().is_assigned(1));
  log.insert({Timestamp{2, 1}, cancel(1)});  // between them
  // ts order: req(1), cancel(1), up(1) -> P1 gone, move-up is a no-op.
  EXPECT_FALSE(log.state().is_known(1));
}

TEST(UpdateLog, ContainsAndEntryAccessors) {
  Log log(4);
  log.insert({Timestamp{5, 1}, req(9)});
  EXPECT_TRUE(log.contains(Timestamp{5, 1}));
  EXPECT_FALSE(log.contains(Timestamp{5, 0}));
  EXPECT_FALSE(log.contains(Timestamp{4, 1}));
  EXPECT_EQ(log.update_at(0), req(9));
  EXPECT_EQ(log.ts_at(0), (Timestamp{5, 1}));
  EXPECT_EQ(log.known_timestamps(),
            (std::vector<Timestamp>{Timestamp{5, 1}}));
}

/// Property: for random arrival orders and any checkpoint interval, the
/// incrementally maintained state equals a from-scratch replay.
class UpdateLogEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(UpdateLogEquivalence, MatchesNaiveReplayUnderRandomArrivals) {
  const auto [checkpoint_interval, seed] = GetParam();
  sim::Rng rng(seed);
  // Build a random update sequence with global timestamps 1..n.
  const std::size_t n = 200;
  std::vector<Log::Entry> entries;
  for (std::size_t i = 0; i < n; ++i) {
    const auto p =
        static_cast<apps::airline::Person>(rng.uniform_int(1, 12));
    Update u;
    switch (rng.uniform_int(0, 3)) {
      case 0: u = req(p); break;
      case 1: u = cancel(p); break;
      case 2: u = up(p); break;
      default: u = down(p); break;
    }
    entries.push_back({Timestamp{i + 1, 0}, u});
  }
  // Shuffle arrival order (Fisher–Yates with our Rng).
  std::vector<Log::Entry> arrival = entries;
  for (std::size_t i = arrival.size(); i > 1; --i) {
    const auto j =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(arrival[i - 1], arrival[j]);
  }
  Log log(checkpoint_interval);
  for (const auto& e : arrival) {
    log.insert(e);
    // Invariant after EVERY insert, not just at the end.
    ASSERT_EQ(log.state(), log.recompute_naive());
  }
  // Final state also equals replay of the ts-ordered original sequence.
  SmallAirline::State expect = SmallAirline::initial();
  for (const auto& e : entries) SmallAirline::apply(e.update, expect);
  EXPECT_EQ(log.state(), expect);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UpdateLogEquivalence,
    ::testing::Combine(::testing::Values(0u, 1u, 4u, 32u, 1000u),
                       ::testing::Values(1u, 2u, 3u)));

TEST(UpdateLog, CheckpointsReduceRedoWork) {
  // The [BK]/[SKS]-style optimization claim, measured: replaying after a
  // mid insert from a nearby checkpoint redoes far fewer updates than
  // replaying from scratch.
  const std::size_t n = 500;
  const auto build = [&](std::size_t interval) {
    Log log(interval);
    for (std::size_t i = 0; i < n; ++i) {
      log.insert({Timestamp{2 * (i + 1), 0}, req(static_cast<apps::airline::Person>(i % 7 + 1))});
    }
    // One late insert near the end.
    log.insert({Timestamp{2 * n - 3, 1}, cancel(3)});
    return log.stats().redone_updates;
  };
  const auto redo_naive = build(0);
  const auto redo_ckpt = build(16);
  EXPECT_LT(redo_ckpt, redo_naive);
}

TEST(UpdateLog, CompactionShiftsCheckpointsIncrementally) {
  Log log(4);
  for (std::size_t i = 0; i < 20; ++i) {
    log.insert({Timestamp{i + 1, 0},
                req(static_cast<apps::airline::Person>(i % 7 + 1))});
  }
  // Base + snapshots at 4, 8, 12, 16, 20.
  EXPECT_EQ(log.checkpoints_retained(), 6u);
  const auto before = log.state();
  // Fold ts < 10 (entries 1..9). Snapshots above the fold point must be
  // shifted, not rebuilt: no redo work is charged for surviving suffix.
  const auto redo_before = log.stats().redone_updates;
  EXPECT_EQ(log.compact_before(Timestamp{10, 0}), 9u);
  EXPECT_EQ(log.stats().redone_updates, redo_before);
  EXPECT_EQ(log.size(), 11u);
  EXPECT_EQ(log.folded_count(), 9u);
  // Base + shifted snapshots formerly at 12, 16, 20 (now 3, 7, 11).
  EXPECT_EQ(log.checkpoints_retained(), 4u);
  EXPECT_EQ(log.state(), before);
  EXPECT_EQ(log.state(), log.recompute_naive());
  // Merging continues correctly against the shifted snapshots — including
  // a mid-insert that replays from one of them.
  log.insert({Timestamp{25, 0}, req(9)});
  log.insert({Timestamp{15, 1}, cancel(2)});
  EXPECT_EQ(log.state(), log.recompute_naive());
  EXPECT_EQ(log.total_merged(), 22u);
}

TEST(UpdateLog, GeometricThinningBoundsSnapshots) {
  // max_checkpoints = 4 with interval 4 over 200 tail appends: unbounded
  // mode would retain ~50 snapshots; geometric thinning keeps a handful,
  // dense near the tail and sparse near the base.
  Log log(4, 4);
  for (std::size_t i = 0; i < 200; ++i) {
    log.insert({Timestamp{i + 1, 0},
                req(static_cast<apps::airline::Person>(i % 7 + 1))});
  }
  EXPECT_LE(log.checkpoints_retained(), 10u);
  EXPECT_GT(log.stats().checkpoints_thinned, 0u);
  EXPECT_EQ(log.state(), log.recompute_naive());
  // Mid-inserts at early positions fall back to the sparse snapshots (or
  // the base) and must still converge to the naive replay.
  log.insert({Timestamp{10, 1}, cancel(3)});
  EXPECT_EQ(log.state(), log.recompute_naive());
  log.insert({Timestamp{150, 1}, up(5)});
  EXPECT_EQ(log.state(), log.recompute_naive());
}

TEST(UpdateLog, ThinningComposesWithCompaction) {
  Log log(4, 4);
  for (std::size_t i = 0; i < 100; ++i) {
    log.insert({Timestamp{i + 1, 0},
                req(static_cast<apps::airline::Person>(i % 5 + 1))});
  }
  EXPECT_GT(log.compact_before(Timestamp{60, 0}), 0u);
  EXPECT_EQ(log.state(), log.recompute_naive());
  for (std::size_t i = 100; i < 160; ++i) {
    log.insert({Timestamp{i + 1, 0},
                req(static_cast<apps::airline::Person>(i % 5 + 1))});
  }
  log.insert({Timestamp{80, 1}, cancel(2)});
  EXPECT_EQ(log.state(), log.recompute_naive());
  EXPECT_LE(log.checkpoints_retained(), 10u);
}

/// Property: over shuffled arrivals with interleaved compaction, the log
/// matches values it does not compute itself — a fold of everything that
/// arrived, sorted by timestamp; the arrived timestamps not yet folded; and
/// undo/fold counts derived from the arrival order alone.
class UpdateLogOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UpdateLogOracle, MatchesSortedFoldUnderRandomArrivalsAndCompaction) {
  sim::Rng rng(GetParam());
  const std::size_t n = 300;
  std::vector<Log::Entry> arrival;
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = static_cast<apps::airline::Person>(rng.uniform_int(1, 12));
    Update u;
    switch (rng.uniform_int(0, 3)) {
      case 0: u = req(p); break;
      case 1: u = cancel(p); break;
      case 2: u = up(p); break;
      default: u = down(p); break;
    }
    arrival.push_back({Timestamp{i + 1, 0}, u});
  }
  for (std::size_t i = arrival.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(arrival[i - 1], arrival[j]);
  }
  Log log(8, 4);
  std::vector<Log::Entry> arrived;  // kept sorted by timestamp
  Timestamp cut{};                  // highest compaction cut so far
  std::vector<bool> seen(n + 1, false);
  std::uint64_t complete = 0;  // every timestamp 1..complete has arrived
  std::uint64_t expect_undone = 0, folded_returned = 0;
  for (std::size_t i = 0; i < arrival.size(); ++i) {
    const Log::Entry& e = arrival[i];
    const auto later = std::upper_bound(
        arrived.begin(), arrived.end(), e.ts,
        [](const Timestamp& t, const Log::Entry& a) { return t < a.ts; });
    expect_undone += static_cast<std::uint64_t>(arrived.end() - later);
    arrived.insert(later, e);
    log.insert(e);
    seen[e.ts.logical] = true;
    while (complete < n && seen[complete + 1]) ++complete;
    // Compaction cuts must sit at or below everything that can still
    // arrive; under a shuffle that is the complete prefix of the timestamp
    // line. Cutting at its last timestamp leaves an entry exactly at the
    // cut, so an off-by-one fold shows up in known_timestamps().
    if ((i % 64 == 63 || i + 1 == n) && complete > 0) {
      const Timestamp c{complete, 0};
      folded_returned += log.compact_before(c);
      cut = std::max(cut, c);
    }
    SmallAirline::State expect = SmallAirline::initial();
    std::vector<Timestamp> unfolded;
    for (const Log::Entry& a : arrived) {
      SmallAirline::apply(a.update, expect);
      if (!(a.ts < cut)) unfolded.push_back(a.ts);
    }
    ASSERT_EQ(log.state(), expect) << "after insert " << i;
    ASSERT_EQ(log.known_timestamps(), unfolded) << "after insert " << i;
  }
  EXPECT_EQ(log.stats().tail_appends + log.stats().mid_inserts, n);
  EXPECT_EQ(log.stats().undone_updates, expect_undone);
  EXPECT_EQ(log.stats().entries_folded, folded_returned);
}

INSTANTIATE_TEST_SUITE_P(Sweep, UpdateLogOracle,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u));

TEST(UpdateLog, TruncateSuffixThenRemergeMatchesReplay) {
  // The stale-disk path: truncation keeps a consistent prefix, and
  // re-merging the lost tail out of order matches the naive oracle.
  Log log(4);
  std::vector<Log::Entry> all;
  for (std::size_t i = 0; i < 40; ++i) {
    all.push_back({Timestamp{i + 1, 0},
                   req(static_cast<apps::airline::Person>(i % 9 + 1))});
  }
  for (const auto& e : all) log.insert(e);
  EXPECT_EQ(log.truncate_suffix(25), 15u);
  EXPECT_EQ(log.size(), 25u);
  EXPECT_EQ(log.state(), log.recompute_naive());
  // Replay the lost tail out of order, as anti-entropy repair would.
  for (std::size_t i = all.size(); i > 25; --i) log.insert(all[i - 1]);
  EXPECT_EQ(log.size(), 40u);
  EXPECT_EQ(log.state(), log.recompute_naive());
  SmallAirline::State expect = SmallAirline::initial();
  for (const auto& e : all) SmallAirline::apply(e.update, expect);
  EXPECT_EQ(log.state(), expect);
}

TEST(UpdateLog, StatsCountCheckpoints) {
  Log log(4);
  for (std::size_t i = 0; i < 12; ++i) {
    log.insert({Timestamp{i + 1, 0}, req(static_cast<apps::airline::Person>(i + 1))});
  }
  EXPECT_EQ(log.stats().checkpoints_taken, 3u);  // at sizes 4, 8, 12
  // A mid insert at position 5 invalidates checkpoints covering > 5.
  log.insert({Timestamp{5, 1}, cancel(1)});
  EXPECT_GT(log.stats().checkpoints_invalidated, 0u);
  EXPECT_EQ(log.state(), log.recompute_naive());
}

}  // namespace
