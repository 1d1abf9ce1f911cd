// The Fly-by-Night airline reservation system (paper section 2, examples).
//
// "Fly-by-Night Airlines is a little-known airline company which has exactly
// one scheduled flight, Flight 1 ... will take its lucky 100 passengers from
// Boston to an idyllic resort in the Caribbean."
//
// A database state consists of ASSIGNED-LIST (people notified they have
// seats) and WAIT-LIST (people who requested seats but have none); the
// well-formedness condition is that the two lists are disjoint. There are
// four transactions — REQUEST(P), CANCEL(P), MOVE-UP, MOVE-DOWN — each split
// into a decision part and an update exactly as in the paper, and two
// integrity constraints:
//
//   constraint 0 (overbooking):  AL <= Capacity,
//       cost(s,0) = OverCost * (AL(s) -. Capacity)          [paper: $900]
//   constraint 1 (underbooking): AL >= Capacity or WL == 0,
//       cost(s,1) = UnderCost * min(Capacity -. AL(s), WL(s)) [paper: $300]
//
// One deliberate interpretation note: the OCR of the MOVE-DOWN program reads
// "add P to end of WAIT-LIST", but the paper's own section 4.2 claim that
// *all* transactions preserve priority, and the section 5.5 example ("our
// definitions say that Q gets put at the head of the WAIT-LIST"), both
// require the moved-down person to be inserted at the FRONT of the wait
// list (they outrank every waiter: they were assigned, waiters were not).
// We implement front-insertion; tests/test_priority.cpp demonstrates that
// end-insertion would falsify the paper's preserves-priority example.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/monus.hpp"

namespace apps::airline {

/// Passengers are dense integer ids; person_name(p) renders the paper's
/// "P1", "P2", ... labels.
using Person = std::uint32_t;

std::string person_name(Person p);

/// What a transaction update does, as broadcast between nodes. A
/// default-constructed update is a no-op (required by core::Application).
struct Update {
  enum class Kind : std::uint8_t {
    kNoop = 0,
    kRequest,   ///< request(P):  P -> end of WAIT-LIST if on neither list
    kCancel,    ///< cancel(P):   remove P from whichever list holds it
    kMoveUp,    ///< move-up(P):  P from WAIT-LIST -> end of ASSIGNED-LIST
    kMoveDown,  ///< move-down(P):P from ASSIGNED-LIST -> front of WAIT-LIST
  };
  Kind kind = Kind::kNoop;
  Person person = 0;

  friend auto operator<=>(const Update&, const Update&) = default;
  std::string to_string() const;
};

std::ostream& operator<<(std::ostream& os, const Update& u);

/// What clients submit. MOVE-UP / MOVE-DOWN carry no person — their decision
/// parts *select* the person from the observed state (paper section 2.3).
struct Request {
  enum class Kind : std::uint8_t { kRequest, kCancel, kMoveUp, kMoveDown };
  Kind kind = Kind::kRequest;
  Person person = 0;  ///< Meaningful for kRequest / kCancel only.

  static Request request(Person p) { return {Kind::kRequest, p}; }
  static Request cancel(Person p) { return {Kind::kCancel, p}; }
  static Request move_up() { return {Kind::kMoveUp, 0}; }
  static Request move_down() { return {Kind::kMoveDown, 0}; }

  friend auto operator<=>(const Request&, const Request&) = default;
  std::string to_string() const;
};

/// Database state: the two ordered lists.
struct State {
  std::vector<Person> assigned;  ///< ASSIGNED-LIST, in notification order.
  std::vector<Person> waiting;   ///< WAIT-LIST, in priority order.

  friend bool operator==(const State&, const State&) = default;

  bool is_assigned(Person p) const {
    return std::find(assigned.begin(), assigned.end(), p) != assigned.end();
  }
  bool is_waiting(Person p) const {
    return std::find(waiting.begin(), waiting.end(), p) != waiting.end();
  }
  /// "A person is known in a given state s if he is either in
  /// ASSIGNED-LIST(s) or WAIT-LIST(s)."
  bool is_known(Person p) const { return is_assigned(p) || is_waiting(p); }

  /// AL(s) and WL(s) shorthands of section 2.1.
  std::int64_t al() const { return static_cast<std::int64_t>(assigned.size()); }
  std::int64_t wl() const { return static_cast<std::int64_t>(waiting.size()); }

  std::string to_string() const;
};

std::ostream& operator<<(std::ostream& os, const State& s);

namespace detail {

/// True iff no person appears twice in `first` followed by `second`: one
/// pass over a seen-bitset (person_bits.hpp), or a sort of both lists when
/// the ids are sparse.
bool all_distinct(const std::vector<Person>& first,
                  const std::vector<Person>& second);

}  // namespace detail

/// The application, parameterized so experiments can shrink the flight.
/// `Airline` below is the paper's instance (100 seats, $900 / $300).
template <int Capacity = 100, int OverbookCost = 900, int UnderbookCost = 300>
struct BasicAirline {
  using State = airline::State;
  using Update = airline::Update;
  using Request = airline::Request;

  static constexpr int kCapacity = Capacity;
  static constexpr int kOverbookCost = OverbookCost;
  static constexpr int kUnderbookCost = UnderbookCost;
  static constexpr int kNumConstraints = 2;
  static constexpr int kOverbooking = 0;
  static constexpr int kUnderbooking = 1;

  static std::string name() {
    return "fly-by-night(" + std::to_string(Capacity) + ")";
  }

  /// "The initial state has both lists empty."
  static State initial() { return State{}; }

  /// "ASSIGNED-LIST and WAIT-LIST must contain disjoint sets of people."
  /// (We additionally require each list to be duplicate-free, which every
  /// update preserves.) Linear in the list lengths: the checkers ask this
  /// of every transaction's apparent and actual state.
  static bool well_formed(const State& s) {
    return detail::all_distinct(s.assigned, s.waiting);
  }

  /// The update semantics of the four transaction programs (section 2.3).
  static void apply(const Update& u, State& s) {
    switch (u.kind) {
      case Update::Kind::kNoop:
        break;
      case Update::Kind::kRequest:
        // "adding P to the WAIT-LIST provided that P is not already on
        // either the WAIT-LIST or the ASSIGNED-LIST ... In case P is on
        // either list, A does nothing." (Policy of section 5.1: a duplicate
        // request does not change P's original priority.)
        if (!s.is_known(u.person)) s.waiting.push_back(u.person);
        break;
      case Update::Kind::kCancel:
        // "removes P from any list on which it happens to appear."
        std::erase(s.waiting, u.person);
        std::erase(s.assigned, u.person);
        break;
      case Update::Kind::kMoveUp:
        // "moves P from the waiting list to the end of the assigned list,
        // provided that P is actually on the waiting list in s'. Otherwise
        // (i.e. if P is already on the assigned list, or P is on neither
        // list), no change occurs." (Section 5.1 policy: a duplicate
        // move-up does not alter P's previous priority.)
        if (s.is_waiting(u.person)) {
          std::erase(s.waiting, u.person);
          s.assigned.push_back(u.person);
        }
        break;
      case Update::Kind::kMoveDown:
        // Symmetric; front-insertion into the wait list (see file header).
        if (s.is_assigned(u.person)) {
          std::erase(s.assigned, u.person);
          s.waiting.insert(s.waiting.begin(), u.person);
        }
        break;
    }
  }

  /// The decision parts (section 2.3). Decisions observe the state, may
  /// trigger external actions, and select the update — but never write.
  static core::DecisionResult<Update> decide(const Request& req,
                                             const State& s) {
    core::DecisionResult<Update> out;
    switch (req.kind) {
      case Request::Kind::kRequest:
        // "Decision: TRUE" — always the same update, no external actions.
        out.update = Update{Update::Kind::kRequest, req.person};
        break;
      case Request::Kind::kCancel:
        out.update = Update{Update::Kind::kCancel, req.person};
        break;
      case Request::Kind::kMoveUp:
        // "Decision: AL < 100 and WL > 0 and P is the first person on
        //  WAIT-LIST. External event: inform P that P is now assigned."
        if (s.al() < Capacity && s.wl() > 0) {
          const Person p = s.waiting.front();
          out.update = Update{Update::Kind::kMoveUp, p};
          out.external_actions.push_back({"grant-seat", person_name(p)});
        }
        break;
      case Request::Kind::kMoveDown:
        // "Decision: AL > 100 and P is the last person on ASSIGNED-LIST.
        //  External event: inform P that P is now waitlisted."
        if (s.al() > Capacity) {
          const Person p = s.assigned.back();
          out.update = Update{Update::Kind::kMoveDown, p};
          out.external_actions.push_back({"rescind-seat", person_name(p)});
        }
        break;
    }
    return out;
  }

  /// Integrity-constraint costs (section 2.2).
  static double cost(const State& s, int constraint) {
    switch (constraint) {
      case kOverbooking:
        return static_cast<double>(OverbookCost) *
               static_cast<double>(core::monus<std::int64_t>(s.al(), Capacity));
      case kUnderbooking:
        return static_cast<double>(UnderbookCost) *
               static_cast<double>(
                   std::min(core::monus<std::int64_t>(Capacity, s.al()),
                            s.wl()));
      default:
        return 0.0;
    }
  }

  /// Paper-proved classification of the transactions (sections 4.1, 5.2),
  /// consumed by the generic theorem checkers in analysis/. Property tests
  /// independently re-verify these claims on random states.
  struct Theory {
    /// Section 4.1 examples: "the other transactions are all safe for the
    /// overbooking constraint. However, the MOVE-UP transaction is unsafe
    /// ... the MOVE-UP transaction is safe for the underbooking constraint,
    /// but the other three transactions are all unsafe."
    static bool safe_for(const Request& r, int constraint) {
      if (constraint == kOverbooking) return r.kind != Request::Kind::kMoveUp;
      return r.kind == Request::Kind::kMoveUp;
    }

    /// Section 4.1: "all transactions preserve the cost of the overbooking
    /// constraint ... The MOVE-UP transaction ... and the MOVE-DOWN
    /// transaction preserve the cost of the underbooking constraint";
    /// REQUEST and CANCEL do not preserve underbooking.
    static bool preserves_cost(const Request& r, int constraint) {
      if (constraint == kOverbooking) return true;
      return r.kind == Request::Kind::kMoveUp ||
             r.kind == Request::Kind::kMoveDown;
    }

    /// Section 4.1: "900k bounds the cost increase for the overbooking
    /// constraint, while 300k bounds the cost increase for the
    /// underbooking constraint."
    static double f_bound(int constraint, std::size_t k) {
      const double unit = constraint == kOverbooking
                              ? static_cast<double>(OverbookCost)
                              : static_cast<double>(UnderbookCost);
      return unit * static_cast<double>(k);
    }

    /// Section 4.1: "the MOVE-UP transaction compensates for the
    /// underbooking constraint and the MOVE-DOWN transaction compensates
    /// for the overbooking constraint."
    static Request compensator(int constraint) {
      return constraint == kOverbooking ? Request::move_down()
                                        : Request::move_up();
    }
  };

  /// Fairness model (section 4.2): the competing entities are people; the
  /// known people in s are those on either list; priority P < Q iff P
  /// precedes Q on the WAIT-LIST, or P precedes Q on the ASSIGNED-LIST, or
  /// P is assigned and Q is waiting.
  struct Priority {
    using Entity = Person;

    static std::vector<Entity> known(const State& s) {
      std::vector<Entity> out = s.assigned;
      out.insert(out.end(), s.waiting.begin(), s.waiting.end());
      return out;
    }

    static bool precedes(const State& s, Person p, Person q) {
      const auto pos = [](const std::vector<Person>& v, Person x) {
        return std::find(v.begin(), v.end(), x) - v.begin();
      };
      const bool p_assigned = s.is_assigned(p);
      const bool q_assigned = s.is_assigned(q);
      if (p_assigned && q_assigned) {
        return pos(s.assigned, p) < pos(s.assigned, q);
      }
      if (!p_assigned && !q_assigned && s.is_waiting(p) && s.is_waiting(q)) {
        return pos(s.waiting, p) < pos(s.waiting, q);
      }
      return p_assigned && s.is_waiting(q);
    }
  };
};

/// The paper's instance: 100 seats, $900 per overbooked passenger, $300 per
/// avoidable empty seat.
using Airline = BasicAirline<100, 900, 300>;

/// A small instance used by randomized property tests and fast benches so
/// interesting (over/under-booked) states are reached quickly.
using SmallAirline = BasicAirline<5, 900, 300>;

}  // namespace apps::airline
