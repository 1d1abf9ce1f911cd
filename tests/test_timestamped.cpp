// The section 5.5 timestamped redesign: stamp-sorted lists, update
// semantics, decisions, and the no-inversion guarantee measured over
// cluster runs against the basic app.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "analysis/cost_bounds.hpp"
#include "analysis/execution_checker.hpp"
#include "analysis/fairness.hpp"
#include "apps/airline/person_bits.hpp"
#include "apps/airline/timestamped.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "shard/cluster.hpp"

namespace {

namespace al = apps::airline;
using TsAir = al::SmallTimestampedAirline;
using al::TsEntry;
using al::TsRequest;
using al::TsUpdate;

TEST(TimestampedAirline, RequestInsertsInStampOrder) {
  TsAir::State s;
  TsAir::apply({TsUpdate::Kind::kRequest, 1, 300}, s);
  TsAir::apply({TsUpdate::Kind::kRequest, 2, 100}, s);
  TsAir::apply({TsUpdate::Kind::kRequest, 3, 200}, s);
  ASSERT_EQ(s.waiting.size(), 3u);
  EXPECT_EQ(s.waiting[0], (TsEntry{2, 100}));
  EXPECT_EQ(s.waiting[1], (TsEntry{3, 200}));
  EXPECT_EQ(s.waiting[2], (TsEntry{1, 300}));
}

TEST(TimestampedAirline, DuplicateRequestKeepsOriginalStamp) {
  TsAir::State s;
  TsAir::apply({TsUpdate::Kind::kRequest, 1, 100}, s);
  TsAir::apply({TsUpdate::Kind::kRequest, 1, 999}, s);
  ASSERT_EQ(s.waiting.size(), 1u);
  EXPECT_EQ(s.waiting[0].stamp, 100u);
}

TEST(TimestampedAirline, MoveUpKeepsStampAndSortsAssigned) {
  TsAir::State s;
  TsAir::apply({TsUpdate::Kind::kRequest, 1, 200}, s);
  TsAir::apply({TsUpdate::Kind::kRequest, 2, 100}, s);
  TsAir::apply({TsUpdate::Kind::kMoveUp, 1, 200}, s);
  TsAir::apply({TsUpdate::Kind::kMoveUp, 2, 100}, s);
  ASSERT_EQ(s.assigned.size(), 2u);
  EXPECT_EQ(s.assigned[0], (TsEntry{2, 100}));  // stamp order, not arrival
  EXPECT_EQ(s.assigned[1], (TsEntry{1, 200}));
}

TEST(TimestampedAirline, MoveDownInsertsByStampNotAtHead) {
  // The redesign's core behaviour.
  TsAir::State s;
  TsAir::apply({TsUpdate::Kind::kRequest, 1, 100}, s);  // P waits
  TsAir::apply({TsUpdate::Kind::kRequest, 2, 200}, s);
  TsAir::apply({TsUpdate::Kind::kMoveUp, 2, 200}, s);   // Q assigned
  TsAir::apply({TsUpdate::Kind::kMoveDown, 2, 200}, s); // Q demoted
  ASSERT_EQ(s.waiting.size(), 2u);
  EXPECT_EQ(s.waiting[0].person, 1u);  // P first (earlier stamp)
  EXPECT_EQ(s.waiting[1].person, 2u);
}

TEST(TimestampedAirline, DecisionsPickByStamp) {
  TsAir::State s;
  TsAir::apply({TsUpdate::Kind::kRequest, 1, 300}, s);
  TsAir::apply({TsUpdate::Kind::kRequest, 2, 100}, s);
  const auto up = TsAir::decide(TsRequest::move_up(), s);
  EXPECT_EQ(up.update.person, 2u);  // earliest stamp wins the seat
  // Overbook, then the latest-stamped assignee loses it.
  for (al::Person p = 10; p <= 15; ++p) {
    TsAir::apply({TsUpdate::Kind::kRequest, p, 1000u + p}, s);
    TsAir::apply({TsUpdate::Kind::kMoveUp, p, 1000u + p}, s);
  }
  ASSERT_GT(s.al(), TsAir::kCapacity);
  const auto down = TsAir::decide(TsRequest::move_down(), s);
  EXPECT_EQ(down.update.person, 15u);
}

TEST(TimestampedAirline, WellFormednessRequiresSortedDisjoint) {
  TsAir::State s;
  s.waiting = {{1, 200}, {2, 100}};  // unsorted
  EXPECT_FALSE(TsAir::well_formed(s));
  TsAir::State t;
  t.waiting = {{1, 100}};
  t.assigned = {{1, 100}};
  EXPECT_FALSE(TsAir::well_formed(t));
  TsAir::State u;
  u.waiting = {{2, 100}, {1, 200}};
  u.assigned = {{3, 50}};
  EXPECT_TRUE(TsAir::well_formed(u));
}

/// The quadratic definition well_formed computed before it became linear,
/// kept as the reference: both lists strictly increasing in (stamp,
/// person), and no assigned person found on the wait list.
bool quadratic_well_formed(const TsAir::State& s) {
  const auto dup_free_sorted = [](const std::vector<TsEntry>& v) {
    for (std::size_t i = 1; i < v.size(); ++i) {
      if (!(v[i - 1] < v[i])) return false;
    }
    return true;
  };
  if (!dup_free_sorted(s.assigned) || !dup_free_sorted(s.waiting)) {
    return false;
  }
  for (const TsEntry& e : s.assigned) {
    if (s.find_waiting(e.person) != nullptr) return false;
  }
  return true;
}

TEST(TimestampedAirline, WellFormednessMatchesQuadraticDefinition) {
  std::mt19937_64 rng(20260416);
  const auto pick = [&rng](std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(0, hi)(rng);
  };
  std::size_t bitset_runs = 0, sorted_runs = 0, ill_formed = 0, total = 0;
  const auto check = [&](const TsAir::State& s) {
    const std::size_t entries = s.assigned.size() + s.waiting.size();
    al::Person max_id = 0;
    for (const TsEntry& e : s.assigned) max_id = std::max(max_id, e.person);
    for (const TsEntry& e : s.waiting) max_id = std::max(max_id, e.person);
    if (!s.assigned.empty() && !s.waiting.empty()) {
      ++(al::detail::PersonBits::fits(max_id, entries) ? bitset_runs
                                                        : sorted_runs);
    }
    const bool expected = quadratic_well_formed(s);
    ill_formed += expected ? 0 : 1;
    ++total;
    EXPECT_EQ(TsAir::well_formed(s), expected) << s;
  };
  check(TsAir::State{});
  for (int trial = 0; trial < 3000; ++trial) {
    // Persons from a pool of consecutive ids from a base in 0..6000 (the
    // bitset path when the base is low, the sort path when it is high) or
    // of sparse ids (anywhere in the 32-bit range, UINT32_MAX among them);
    // stamps from a small range so equal stamps fall back on the person
    // order.
    std::vector<al::Person> pool(pick(59) + 1);
    if (trial % 2 == 0) {
      const auto base = static_cast<al::Person>(pick(6000));
      for (std::size_t i = 0; i < pool.size(); ++i) {
        pool[i] = base + static_cast<al::Person>(i);
      }
    } else {
      for (al::Person& p : pool) {
        p = static_cast<al::Person>(
            pick(std::numeric_limits<al::Person>::max()));
      }
      pool.front() = std::numeric_limits<al::Person>::max();
    }
    // Disjoint lists by construction; a person may still repeat within a
    // list under another stamp, which is well formed.
    std::shuffle(pool.begin(), pool.end(), rng);
    const std::size_t split = pick(pool.size());
    const auto fill = [&](std::size_t lo, std::size_t hi) {
      std::vector<TsEntry> v;
      if (lo == hi) return v;
      for (std::size_t n = pick(30); n > 0; --n) {
        v.push_back({pool[lo + pick(hi - lo - 1)], pick(20)});
      }
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
      return v;
    };
    TsAir::State s;
    s.assigned = fill(0, split);
    s.waiting = fill(split, pool.size());
    // Then at most two defects: an entry copied next to itself, two
    // neighbours swapped, or an assigned person added to the wait list
    // (half the time the largest id, so the top bitset word is hit).
    for (std::size_t k = pick(2); k > 0; --k) {
      std::vector<TsEntry>& list = pick(1) == 0 ? s.assigned : s.waiting;
      switch (pick(2)) {
        case 0:
          if (!list.empty()) {
            const std::size_t i = pick(list.size() - 1);
            list.insert(list.begin() + static_cast<long>(i), list[i]);
          }
          break;
        case 1:
          if (list.size() >= 2) {
            const std::size_t i = pick(list.size() - 2);
            std::swap(list[i], list[i + 1]);
          }
          break;
        default:
          if (!s.assigned.empty()) {
            const TsEntry moved =
                pick(1) == 0 ? *std::max_element(s.assigned.begin(),
                                                 s.assigned.end(),
                                                 [](const TsEntry& a,
                                                    const TsEntry& b) {
                                                   return a.person < b.person;
                                                 })
                             : s.assigned[pick(s.assigned.size() - 1)];
            al::insert_sorted(s.waiting, {moved.person, pick(20)});
          }
      }
    }
    check(s);
  }
  // Both implementations of the cross-list check ran, on both verdicts.
  EXPECT_GT(bitset_runs, 300u);
  EXPECT_GT(sorted_runs, 300u);
  EXPECT_GT(ill_formed, total / 10);
  EXPECT_GT(total - ill_formed, total / 10);
}

TEST(TimestampedAirline, StatesPrintReadably) {
  TsAir::State s;
  s.assigned = {{3, 50}};
  s.waiting = {{2, 100}, {1, 200}};
  EXPECT_EQ(::testing::PrintToString(s), "AL=[P3@50] WL=[P2@100,P1@200]");
  EXPECT_EQ(::testing::PrintToString(TsEntry{4, 7}), "P4@7");
}

TEST(TimestampedAirline, CostFunctionsMatchBasicShape) {
  TsAir::State s;
  for (al::Person p = 1; p <= 7; ++p) s.assigned.push_back({p, 100u + p});
  EXPECT_DOUBLE_EQ(TsAir::cost(s, TsAir::kOverbooking), 2 * 900.0);
  TsAir::State t;
  t.waiting = {{1, 1}, {2, 2}};
  EXPECT_DOUBLE_EQ(TsAir::cost(t, TsAir::kUnderbooking), 2 * 300.0);
}

class TsClusterFairness : public ::testing::TestWithParam<std::uint64_t> {};

/// Classify for the timestamped app (same shape as AirlineClassify).
struct TsClassify {
  std::optional<al::Person> request_of(const TsRequest& r) const {
    if (r.kind == TsRequest::Kind::kRequest) return r.person;
    return std::nullopt;
  }
  std::optional<al::Person> cancel_of(const TsRequest& r) const {
    if (r.kind == TsRequest::Kind::kCancel) return r.person;
    return std::nullopt;
  }
  bool is_mover(const TsRequest& r) const {
    return r.kind == TsRequest::Kind::kMoveUp ||
           r.kind == TsRequest::Kind::kMoveDown;
  }
};

TEST_P(TsClusterFairness, ListsAlwaysStampSortedUnderPartition) {
  // The redesign's guarantee, measured end-to-end: in EVERY reachable
  // actual state, both lists are sorted by request stamp — so the section
  // 5.5 anomaly (a later requester placed ahead of an earlier one on the
  // same list) cannot occur. Note what is NOT guaranteed: who holds a seat
  // still depends on what the movers saw (Theorem 25's freeze), so
  // assigned-vs-waiting "inversions" remain possible by design.
  using BigTs = al::TimestampedAirlineT<20, 900, 300>;
  auto sc = harness::partitioned_wan(4, 4.0, 16.0);
  shard::Cluster<BigTs> cluster(sc.cluster_config<BigTs>(GetParam()));
  harness::AirlineWorkload w;
  w.duration = 22.0;
  w.request_rate = 3.0;
  w.mover_rate = 4.0;
  w.move_down_fraction = 0.4;
  w.cancel_fraction = 0.0;
  w.max_persons = 80;
  harness::drive_airline(cluster, w, GetParam() ^ 0x5);
  cluster.run_until(w.duration);
  cluster.settle();
  const auto exec = cluster.execution();
  EXPECT_TRUE(analysis::check_prefix_subsequence_condition(exec).ok());
  const auto sorted_by_stamp = [](const std::vector<TsEntry>& v) {
    for (std::size_t i = 1; i < v.size(); ++i) {
      if (!(v[i - 1] < v[i])) return false;
    }
    return true;
  };
  for (const auto& s : exec.actual_states()) {
    ASSERT_TRUE(sorted_by_stamp(s.waiting));
    ASSERT_TRUE(sorted_by_stamp(s.assigned));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TsClusterFairness,
                         ::testing::Values(601u, 602u, 603u));

class TsCostBounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TsCostBounds, Theorems5And7HoldOnTheRedesign) {
  // The section 5.2 cost-bound theorems apply to the timestamped redesign
  // unchanged: same costs, same safety classification.
  using BigTs = al::TimestampedAirlineT<20, 900, 300>;
  auto sc = harness::partitioned_wan(4, 5.0, 18.0);
  shard::Cluster<BigTs> cluster(sc.cluster_config<BigTs>(GetParam()));
  harness::AirlineWorkload w;
  w.duration = 25.0;
  w.request_rate = 3.0;
  w.mover_rate = 4.0;
  w.max_persons = 100;
  harness::drive_airline(cluster, w, GetParam() ^ 0x77);
  cluster.run_until(w.duration);
  cluster.settle();
  const auto exec = cluster.execution();
  const auto preserves = [](const TsRequest& r, int c) {
    return BigTs::Theory::preserves_cost(r, c);
  };
  const auto unsafe = [](const TsRequest& r, int c) {
    return !BigTs::Theory::safe_for(r, c);
  };
  const auto f = [](int c, std::size_t k) {
    return BigTs::Theory::f_bound(c, k);
  };
  for (int c = 0; c < BigTs::kNumConstraints; ++c) {
    const auto r5 = analysis::check_theorem5(exec, c, preserves, f);
    EXPECT_TRUE(r5.ok()) << r5.to_string();
  }
  const auto r7 =
      analysis::check_theorem7(exec, BigTs::kOverbooking, unsafe, f);
  EXPECT_TRUE(r7.ok()) << r7.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, TsCostBounds,
                         ::testing::Values(611u, 612u, 613u));

}  // namespace
