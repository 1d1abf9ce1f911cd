// Timestamp total order and Lamport clock invariants (paper section 1.2:
// globally unique timestamps via local counters + node-id tiebreak).
#include <gtest/gtest.h>

#include "core/timestamp.hpp"

namespace {

using core::LamportClock;
using core::Timestamp;

TEST(Timestamp, TotalOrderByLogicalThenNode) {
  EXPECT_LT((Timestamp{1, 5}), (Timestamp{2, 0}));
  EXPECT_LT((Timestamp{3, 1}), (Timestamp{3, 2}));
  EXPECT_EQ((Timestamp{3, 2}), (Timestamp{3, 2}));
  EXPECT_GT((Timestamp{4, 0}), (Timestamp{3, 9}));
}

TEST(Timestamp, ToStringFormat) {
  EXPECT_EQ((Timestamp{7, 3}).to_string(), "7@n3");
}

TEST(Timestamp, GtestPrintsToStringText) {
  EXPECT_EQ(::testing::PrintToString(Timestamp{3, 1}),
            (Timestamp{3, 1}).to_string());
}

TEST(LamportClock, TickIsStrictlyIncreasing) {
  LamportClock clk(2);
  Timestamp prev = clk.tick();
  for (int i = 0; i < 100; ++i) {
    const Timestamp next = clk.tick();
    EXPECT_LT(prev, next);
    prev = next;
  }
}

TEST(LamportClock, ObserveAdvancesPastRemote) {
  LamportClock clk(0);
  clk.observe(Timestamp{100, 3});
  const Timestamp t = clk.tick();
  EXPECT_GT(t, (Timestamp{100, 3}));
  EXPECT_EQ(t.node, 0u);
}

TEST(LamportClock, ObserveOlderTimestampIsNoop) {
  LamportClock clk(0);
  clk.tick();
  clk.tick();  // counter = 2
  clk.observe(Timestamp{1, 9});
  EXPECT_EQ(clk.counter(), 2u);
}

TEST(LamportClock, TwoClocksNeverCollide) {
  // Same logical values can occur, but the node tiebreak keeps timestamps
  // globally unique — the paper's requirement for a total merge order.
  LamportClock a(0), b(1);
  const Timestamp ta = a.tick();
  const Timestamp tb = b.tick();
  EXPECT_NE(ta, tb);
  EXPECT_EQ(ta.logical, tb.logical);
}

TEST(LamportClock, LocalTimestampExceedsEverythingObserved) {
  // The invariant that makes a transaction's prefix a subsequence of its
  // *predecessors* (section 3.1 condition (1)).
  LamportClock clk(1);
  std::vector<Timestamp> observed = {{5, 0}, {9, 2}, {3, 3}, {9, 0}};
  for (const auto& ts : observed) clk.observe(ts);
  const Timestamp mine = clk.tick();
  for (const auto& ts : observed) EXPECT_GT(mine, ts);
}

TEST(Timestamp, HashDistinguishes) {
  std::hash<Timestamp> h;
  EXPECT_NE(h(Timestamp{1, 2}), h(Timestamp{2, 1}));
}

}  // namespace
