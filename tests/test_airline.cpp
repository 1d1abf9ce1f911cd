// Fly-by-Night airline semantics (paper section 2): the four transaction
// programs, the section 5.1 policy decisions, the cost functions with the
// paper's exact dollar figures, well-formedness, and the monus operator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "apps/airline/airline.hpp"
#include "apps/airline/person_bits.hpp"
#include "core/model.hpp"
#include "core/monus.hpp"

namespace {

namespace al = apps::airline;
using al::Airline;
using al::Request;
using al::SmallAirline;
using al::Update;
using State = al::State;

State state_with(std::vector<al::Person> assigned,
                 std::vector<al::Person> waiting) {
  State s;
  s.assigned = std::move(assigned);
  s.waiting = std::move(waiting);
  return s;
}

TEST(Monus, TruncatedSubtraction) {
  EXPECT_EQ(core::monus<std::int64_t>(5, 3), 2);
  EXPECT_EQ(core::monus<std::int64_t>(3, 5), 0);
  EXPECT_EQ(core::monus<std::int64_t>(4, 4), 0);
  EXPECT_DOUBLE_EQ(core::monus(2.5, 1.0), 1.5);
  EXPECT_DOUBLE_EQ(core::monus(1.0, 2.5), 0.0);
}

TEST(AirlineState, InitialIsEmptyAndWellFormed) {
  const State s = Airline::initial();
  EXPECT_TRUE(s.assigned.empty());
  EXPECT_TRUE(s.waiting.empty());
  EXPECT_TRUE(Airline::well_formed(s));
  EXPECT_DOUBLE_EQ(core::total_cost<Airline>(s), 0.0);  // initially zero cost
}

TEST(AirlineState, WellFormednessRejectsOverlapAndDuplicates) {
  EXPECT_FALSE(Airline::well_formed(state_with({1}, {1})));
  EXPECT_FALSE(Airline::well_formed(state_with({1, 1}, {})));
  EXPECT_FALSE(Airline::well_formed(state_with({}, {2, 2})));
  EXPECT_TRUE(Airline::well_formed(state_with({1, 2}, {3, 4})));
}

/// The quadratic definition well_formed computed before it became one
/// linear pass, kept as the reference: every person occurs once on its own
/// list, and no assigned person is waiting.
bool quadratic_well_formed(const State& s) {
  for (al::Person p : s.assigned) {
    if (std::count(s.assigned.begin(), s.assigned.end(), p) != 1) return false;
    if (s.is_waiting(p)) return false;
  }
  for (al::Person p : s.waiting) {
    if (std::count(s.waiting.begin(), s.waiting.end(), p) != 1) return false;
  }
  return true;
}

/// A random state over `ids` (distinct), each list 0..40 long, with up to
/// two planted duplicates: within ASSIGNED-LIST, within WAIT-LIST, or
/// across the lists. Half the plants copy a list's largest id, so the top
/// bitset word sees duplicates too.
State random_state(std::mt19937_64& rng, std::vector<al::Person> ids) {
  std::shuffle(ids.begin(), ids.end(), rng);
  const auto len = [&rng](std::size_t cap) {
    return std::uniform_int_distribution<std::size_t>(0, cap)(rng);
  };
  const std::size_t na = len(std::min<std::size_t>(40, ids.size()));
  const std::size_t nw = len(std::min<std::size_t>(40, ids.size() - na));
  State s;
  s.assigned.assign(ids.begin(), ids.begin() + static_cast<long>(na));
  s.waiting.assign(ids.begin() + static_cast<long>(na),
                   ids.begin() + static_cast<long>(na + nw));
  const std::size_t plants = len(2);
  for (std::size_t k = 0; k < plants; ++k) {
    const bool from_assigned = len(1) == 0;
    const bool into_assigned = len(1) == 0;
    const std::vector<al::Person>& from =
        from_assigned ? s.assigned : s.waiting;
    std::vector<al::Person>& into = into_assigned ? s.assigned : s.waiting;
    if (from.empty() || into.empty()) continue;
    const std::size_t src =
        len(1) == 0 ? static_cast<std::size_t>(
                          std::max_element(from.begin(), from.end()) -
                          from.begin())
                    : len(from.size() - 1);
    const std::size_t dst = len(into.size() - 1);
    if (&from == &into && src == dst) continue;
    into[dst] = from[src];
  }
  return s;
}

TEST(AirlineState, WellFormednessMatchesQuadraticDefinition) {
  std::mt19937_64 rng(20260415);
  std::size_t bitset_runs = 0, sorted_runs = 0, ill_formed = 0, total = 0;
  const auto check = [&](const State& s) {
    const std::size_t entries = s.assigned.size() + s.waiting.size();
    al::Person max_id = 0;
    for (al::Person p : s.assigned) max_id = std::max(max_id, p);
    for (al::Person p : s.waiting) max_id = std::max(max_id, p);
    if (entries >= 2) {
      ++(al::detail::PersonBits::fits(max_id, entries) ? bitset_runs
                                                        : sorted_runs);
    }
    const bool expected = quadratic_well_formed(s);
    ill_formed += expected ? 0 : 1;
    ++total;
    EXPECT_EQ(Airline::well_formed(s), expected) << s;
  };
  check(state_with({}, {}));
  check(state_with({7}, {}));
  check(state_with({}, {7}));
  for (int trial = 0; trial < 3000; ++trial) {
    // Consecutive ids from a base in 0..6000 (the bitset path when the
    // base is low, the sort path when it is high), or sparse ids anywhere
    // in the 32-bit range, UINT32_MAX among them.
    std::vector<al::Person> ids(std::uniform_int_distribution<std::size_t>(
        1, 100)(rng));
    if (trial % 2 == 0) {
      const al::Person base =
          std::uniform_int_distribution<al::Person>(0, 6000)(rng);
      std::iota(ids.begin(), ids.end(), base);
    } else {
      std::uniform_int_distribution<al::Person> any(
          0, std::numeric_limits<al::Person>::max());
      for (al::Person& p : ids) p = any(rng);
      ids.front() = std::numeric_limits<al::Person>::max();
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    }
    check(random_state(rng, std::move(ids)));
  }
  // Both implementations ran, on both verdicts.
  EXPECT_GT(bitset_runs, 500u);
  EXPECT_GT(sorted_runs, 500u);
  EXPECT_GT(ill_formed, total / 10);
  EXPECT_GT(total - ill_formed, total / 10);
}

// --- request(P) update semantics ---

TEST(AirlineUpdate, RequestAddsToEndOfWaitList) {
  State s = state_with({}, {1});
  Airline::apply({Update::Kind::kRequest, 2}, s);
  EXPECT_EQ(s.waiting, (std::vector<al::Person>{1, 2}));
}

TEST(AirlineUpdate, DuplicateRequestIsNoopWhileWaiting) {
  // Section 5.1 policy: "if a person P is already on the WAIT-LIST or
  // ASSIGNED-LIST, and makes a duplicate request, the new request does not
  // change P's original priority."
  State s = state_with({}, {1, 2});
  Airline::apply({Update::Kind::kRequest, 1}, s);
  EXPECT_EQ(s.waiting, (std::vector<al::Person>{1, 2}));
}

TEST(AirlineUpdate, DuplicateRequestIsNoopWhileAssigned) {
  State s = state_with({1}, {2});
  Airline::apply({Update::Kind::kRequest, 1}, s);
  EXPECT_EQ(s.assigned, (std::vector<al::Person>{1}));
  EXPECT_EQ(s.waiting, (std::vector<al::Person>{2}));
}

// --- cancel(P) update semantics ---

TEST(AirlineUpdate, CancelRemovesFromEitherList) {
  State s = state_with({1, 2}, {3});
  Airline::apply({Update::Kind::kCancel, 1}, s);
  EXPECT_EQ(s.assigned, (std::vector<al::Person>{2}));
  Airline::apply({Update::Kind::kCancel, 3}, s);
  EXPECT_TRUE(s.waiting.empty());
}

TEST(AirlineUpdate, CancelOfUnknownPersonIsNoop) {
  State s = state_with({1}, {2});
  const State before = s;
  Airline::apply({Update::Kind::kCancel, 9}, s);
  EXPECT_EQ(s, before);
}

// --- move-up(P) update semantics ---

TEST(AirlineUpdate, MoveUpMovesWaiterToEndOfAssigned) {
  State s = state_with({1}, {2, 3});
  Airline::apply({Update::Kind::kMoveUp, 2}, s);
  EXPECT_EQ(s.assigned, (std::vector<al::Person>{1, 2}));
  EXPECT_EQ(s.waiting, (std::vector<al::Person>{3}));
}

TEST(AirlineUpdate, MoveUpOfAssignedPersonIsNoop) {
  // Section 5.1 policy: "if a person P is already on the ASSIGNED-LIST, a
  // new attempt to assign him a seat does not alter P's previous priority."
  State s = state_with({1, 2}, {3});
  const State before = s;
  Airline::apply({Update::Kind::kMoveUp, 1}, s);
  EXPECT_EQ(s, before);
}

TEST(AirlineUpdate, MoveUpOfUnknownPersonIsNoop) {
  State s = state_with({1}, {2});
  const State before = s;
  Airline::apply({Update::Kind::kMoveUp, 9}, s);
  EXPECT_EQ(s, before);
}

// --- move-down(P) update semantics ---

TEST(AirlineUpdate, MoveDownMovesAssignedToFrontOfWaitList) {
  // Front insertion: the displaced passenger outranks every waiter (see
  // the priority-preservation requirement of section 4.2 and the section
  // 5.5 example "Q gets put at the head of the WAIT-LIST").
  State s = state_with({1, 2}, {3});
  Airline::apply({Update::Kind::kMoveDown, 2}, s);
  EXPECT_EQ(s.assigned, (std::vector<al::Person>{1}));
  EXPECT_EQ(s.waiting, (std::vector<al::Person>{2, 3}));
}

TEST(AirlineUpdate, MoveDownOfNonAssignedIsNoop) {
  State s = state_with({1}, {2});
  const State before = s;
  Airline::apply({Update::Kind::kMoveDown, 2}, s);  // waiting, not assigned
  EXPECT_EQ(s, before);
  Airline::apply({Update::Kind::kMoveDown, 9}, s);  // unknown
  EXPECT_EQ(s, before);
}

TEST(AirlineUpdate, NoopLeavesStateUnchanged) {
  State s = state_with({1}, {2});
  const State before = s;
  Airline::apply(Update{}, s);
  EXPECT_EQ(s, before);
}

TEST(AirlineUpdate, AllUpdatesPreserveWellFormedness) {
  // Required of every update by the model (section 2.3).
  for (const auto kind :
       {Update::Kind::kRequest, Update::Kind::kCancel, Update::Kind::kMoveUp,
        Update::Kind::kMoveDown, Update::Kind::kNoop}) {
    State s = state_with({1, 2, 3}, {4, 5});
    for (al::Person p : {1u, 4u, 9u}) {
      State t = s;
      Airline::apply({kind, p}, t);
      EXPECT_TRUE(Airline::well_formed(t));
    }
  }
}

// --- decision parts ---

TEST(AirlineDecision, RequestAlwaysSameUpdateNoExternal) {
  // "Decision: TRUE" — the decision part does not depend on the state.
  const auto d1 = Airline::decide(Request::request(7), Airline::initial());
  const auto d2 = Airline::decide(Request::request(7),
                                  state_with({1, 2}, {7, 9}));
  EXPECT_EQ(d1.update, (Update{Update::Kind::kRequest, 7}));
  EXPECT_EQ(d1.update, d2.update);
  EXPECT_TRUE(d1.external_actions.empty());
  EXPECT_TRUE(d2.external_actions.empty());
}

TEST(AirlineDecision, CancelAlwaysSameUpdateNoExternal) {
  const auto d = Airline::decide(Request::cancel(7), state_with({7}, {}));
  EXPECT_EQ(d.update, (Update{Update::Kind::kCancel, 7}));
  EXPECT_TRUE(d.external_actions.empty());
}

TEST(AirlineDecision, MoveUpPicksFirstWaiterAndInformsThem) {
  const auto d =
      Airline::decide(Request::move_up(), state_with({1}, {5, 6}));
  EXPECT_EQ(d.update, (Update{Update::Kind::kMoveUp, 5}));
  ASSERT_EQ(d.external_actions.size(), 1u);
  EXPECT_EQ(d.external_actions[0].kind, "grant-seat");
  EXPECT_EQ(d.external_actions[0].subject, "P5");
}

TEST(AirlineDecision, MoveUpNoopWhenFlightFull) {
  std::vector<al::Person> full;
  for (al::Person p = 1; p <= 100; ++p) full.push_back(p);
  const auto d =
      Airline::decide(Request::move_up(), state_with(full, {200}));
  EXPECT_EQ(d.update, Update{});
  EXPECT_TRUE(d.external_actions.empty());
}

TEST(AirlineDecision, MoveUpNoopWhenNobodyWaiting) {
  const auto d = Airline::decide(Request::move_up(), state_with({1}, {}));
  EXPECT_EQ(d.update, Update{});
  EXPECT_TRUE(d.external_actions.empty());
}

TEST(AirlineDecision, MoveDownPicksLastAssignedWhenOverbooked) {
  std::vector<al::Person> over;
  for (al::Person p = 1; p <= 101; ++p) over.push_back(p);
  const auto d = Airline::decide(Request::move_down(), state_with(over, {}));
  EXPECT_EQ(d.update, (Update{Update::Kind::kMoveDown, 101}));
  ASSERT_EQ(d.external_actions.size(), 1u);
  EXPECT_EQ(d.external_actions[0].kind, "rescind-seat");
  EXPECT_EQ(d.external_actions[0].subject, "P101");
}

TEST(AirlineDecision, MoveDownNoopWhenAtOrUnderCapacity) {
  std::vector<al::Person> exactly;
  for (al::Person p = 1; p <= 100; ++p) exactly.push_back(p);
  EXPECT_EQ(Airline::decide(Request::move_down(), state_with(exactly, {}))
                .update,
            Update{});
  EXPECT_EQ(
      Airline::decide(Request::move_down(), state_with({1, 2}, {3})).update,
      Update{});
}

// --- costs: the paper's exact figures ---

TEST(AirlineCost, OverbookingIs900PerExcessPassenger) {
  std::vector<al::Person> people;
  for (al::Person p = 1; p <= 103; ++p) people.push_back(p);
  const State s = state_with(people, {});
  EXPECT_DOUBLE_EQ(Airline::cost(s, Airline::kOverbooking), 3 * 900.0);
  EXPECT_DOUBLE_EQ(Airline::cost(s, Airline::kUnderbooking), 0.0);
}

TEST(AirlineCost, UnderbookingIs300PerFillableSeat) {
  // 98 assigned, 5 waiting: min(100-98, 5) = 2 fillable seats.
  std::vector<al::Person> assigned;
  for (al::Person p = 1; p <= 98; ++p) assigned.push_back(p);
  const State s = state_with(assigned, {200, 201, 202, 203, 204});
  EXPECT_DOUBLE_EQ(Airline::cost(s, Airline::kUnderbooking), 2 * 300.0);
  EXPECT_DOUBLE_EQ(Airline::cost(s, Airline::kOverbooking), 0.0);
}

TEST(AirlineCost, UnderbookingLimitedByWaiters) {
  const State s = state_with({1}, {2});  // 99 free seats, 1 waiter
  EXPECT_DOUBLE_EQ(Airline::cost(s, Airline::kUnderbooking), 300.0);
}

TEST(AirlineCost, ZeroWhenFullAndNobodyWaiting) {
  std::vector<al::Person> full;
  for (al::Person p = 1; p <= 100; ++p) full.push_back(p);
  EXPECT_DOUBLE_EQ(core::total_cost<Airline>(state_with(full, {})), 0.0);
}

TEST(AirlineCost, AtMostOneConstraintNonzero) {
  // "every well-formed state has either cost(s,1) = 0 or cost(s,2) = 0"
  // (used by Corollary 11). Spot-check across the AL range.
  for (int al_count : {0, 50, 99, 100, 101, 150}) {
    std::vector<al::Person> assigned;
    for (int p = 1; p <= al_count; ++p)
      assigned.push_back(static_cast<al::Person>(p));
    const State s = state_with(assigned, {1000, 1001});
    EXPECT_TRUE(Airline::cost(s, 0) == 0.0 || Airline::cost(s, 1) == 0.0);
  }
}

// --- priority relation (section 4.2) ---

TEST(AirlinePriority, WaitListOrder) {
  const State s = state_with({}, {1, 2});
  EXPECT_TRUE(Airline::Priority::precedes(s, 1, 2));
  EXPECT_FALSE(Airline::Priority::precedes(s, 2, 1));
}

TEST(AirlinePriority, AssignedListOrder) {
  const State s = state_with({1, 2}, {});
  EXPECT_TRUE(Airline::Priority::precedes(s, 1, 2));
  EXPECT_FALSE(Airline::Priority::precedes(s, 2, 1));
}

TEST(AirlinePriority, AssignedOutranksWaiting) {
  const State s = state_with({2}, {1});
  EXPECT_TRUE(Airline::Priority::precedes(s, 2, 1));
  EXPECT_FALSE(Airline::Priority::precedes(s, 1, 2));
}

TEST(AirlinePriority, KnownListsBothLists) {
  const State s = state_with({3, 1}, {2});
  const auto known = Airline::Priority::known(s);
  EXPECT_EQ(known, (std::vector<al::Person>{3, 1, 2}));
  EXPECT_TRUE(s.is_known(1));
  EXPECT_FALSE(s.is_known(9));
}

TEST(AirlineStrings, HumanReadable) {
  EXPECT_EQ(al::person_name(42), "P42");
  EXPECT_EQ((Update{Update::Kind::kMoveUp, 3}).to_string(), "move-up(P3)");
  EXPECT_EQ(Request::move_down().to_string(), "MOVE-DOWN");
  EXPECT_EQ(state_with({1}, {2}).to_string(), "AL=[P1] WL=[P2]");
  // gtest prints states and updates through operator<<.
  EXPECT_EQ(::testing::PrintToString(state_with({1}, {2})), "AL=[P1] WL=[P2]");
  EXPECT_EQ(::testing::PrintToString(Update{Update::Kind::kCancel, 4}),
            "cancel(P4)");
}

TEST(SmallAirline, CapacityParameterHonored) {
  // The 5-seat instance used by property tests.
  const State s = state_with({1, 2, 3, 4, 5, 6}, {});
  EXPECT_DOUBLE_EQ(SmallAirline::cost(s, SmallAirline::kOverbooking), 900.0);
  const auto d = SmallAirline::decide(Request::move_down(), s);
  EXPECT_EQ(d.update, (Update{Update::Kind::kMoveDown, 6}));
}

}  // namespace
