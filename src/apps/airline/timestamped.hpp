// The section 5.5 redesign: request timestamps stored in the database.
//
// "It is possible to redesign the application to respect the original
// request order ... It suffices to include request timestamps explicitly in
// the database. Each of the two lists would always be kept sorted according
// to timestamp order. Thus, when the request(P) becomes known to the agent,
// he would insert P ahead of Q on the waiting list. (More precisely, when
// the move-down(Q) is run from a state in which P is on the waiting list, Q
// is not placed at the head of the waiting list, but rather is inserted in
// timestamp order, after P.)"
//
// The request timestamp is supplied by the client with the REQUEST (in the
// harness: the submission's simulated real time as an integer tick), rides
// inside the request(P) update, and is stored with the person on both
// lists. Every insertion keeps both lists stamp-sorted, so relative request
// order is respected no matter how late an old request surfaces — the
// fairness anomaly of the section 5.5 example disappears (experiment E7b).
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/monus.hpp"

#include "apps/airline/airline.hpp"  // Person, person_name

namespace apps::airline {

/// A list entry carrying the person's original request timestamp.
/// Ordered by (stamp, person): both lists are kept sorted in this order.
struct TsEntry {
  Person person = 0;
  std::uint64_t stamp = 0;

  friend auto operator<=>(const TsEntry& a, const TsEntry& b) {
    if (auto c = a.stamp <=> b.stamp; c != 0) return c;
    return a.person <=> b.person;
  }
  friend bool operator==(const TsEntry&, const TsEntry&) = default;
};

std::ostream& operator<<(std::ostream& os, const TsEntry& e);

struct TsState {
  std::vector<TsEntry> assigned;  ///< stamp-sorted ASSIGNED-LIST
  std::vector<TsEntry> waiting;   ///< stamp-sorted WAIT-LIST

  friend bool operator==(const TsState&, const TsState&) = default;

  const TsEntry* find_assigned(Person p) const;
  const TsEntry* find_waiting(Person p) const;
  bool is_known(Person p) const {
    return find_assigned(p) != nullptr || find_waiting(p) != nullptr;
  }
  std::int64_t al() const { return static_cast<std::int64_t>(assigned.size()); }
  std::int64_t wl() const { return static_cast<std::int64_t>(waiting.size()); }
  std::string to_string() const;
};

std::ostream& operator<<(std::ostream& os, const TsState& s);

namespace detail {

/// True iff no person appears in both lists. A person may repeat inside one
/// list (with different stamps); only the cross-list overlap counts. One
/// pass over a seen-bitset (person_bits.hpp), or a sort and binary
/// searches when the ids are sparse.
bool persons_disjoint(const std::vector<TsEntry>& first,
                      const std::vector<TsEntry>& second);

}  // namespace detail

struct TsUpdate {
  using Kind = Update::Kind;
  Kind kind = Kind::kNoop;
  Person person = 0;
  std::uint64_t stamp = 0;  ///< request timestamp (kRequest only)

  friend auto operator<=>(const TsUpdate&, const TsUpdate&) = default;
};

struct TsRequest {
  using Kind = Request::Kind;
  Kind kind = Kind::kRequest;
  Person person = 0;
  std::uint64_t stamp = 0;  ///< client-supplied request timestamp

  static TsRequest request(Person p, std::uint64_t stamp) {
    return {Kind::kRequest, p, stamp};
  }
  static TsRequest cancel(Person p) { return {Kind::kCancel, p, 0}; }
  static TsRequest move_up() { return {Kind::kMoveUp, 0, 0}; }
  static TsRequest move_down() { return {Kind::kMoveDown, 0, 0}; }

  friend auto operator<=>(const TsRequest&, const TsRequest&) = default;
};

/// Stamp-sorted insertion; (stamp, person) breaks ties deterministically.
void insert_sorted(std::vector<TsEntry>& list, TsEntry e);

template <int Capacity = 100, int OverbookCost = 900, int UnderbookCost = 300>
struct TimestampedAirlineT {
  using State = TsState;
  using Update = TsUpdate;
  using Request = TsRequest;

  static constexpr int kCapacity = Capacity;
  static constexpr int kNumConstraints = 2;
  static constexpr int kOverbooking = 0;
  static constexpr int kUnderbooking = 1;

  static std::string name() {
    return "fly-by-night-ts(" + std::to_string(Capacity) + ")";
  }

  static State initial() { return State{}; }

  /// Each list strictly increasing in (stamp, person), and no person on
  /// both lists. Linear in the list lengths.
  static bool well_formed(const State& s) {
    const auto dup_free_sorted = [](const std::vector<TsEntry>& v) {
      for (std::size_t i = 1; i < v.size(); ++i) {
        if (!(v[i - 1] < v[i])) return false;  // sorted, strictly
      }
      return true;
    };
    if (!dup_free_sorted(s.assigned) || !dup_free_sorted(s.waiting))
      return false;
    return detail::persons_disjoint(s.assigned, s.waiting);
  }

  static void apply(const Update& u, State& s) {
    switch (u.kind) {
      case Update::Kind::kNoop:
        break;
      case Update::Kind::kRequest:
        if (!s.is_known(u.person))
          insert_sorted(s.waiting, TsEntry{u.person, u.stamp});
        break;
      case Update::Kind::kCancel:
        std::erase_if(s.waiting,
                      [&](const TsEntry& e) { return e.person == u.person; });
        std::erase_if(s.assigned,
                      [&](const TsEntry& e) { return e.person == u.person; });
        break;
      case Update::Kind::kMoveUp: {
        const TsEntry* e = s.find_waiting(u.person);
        if (e != nullptr) {
          TsEntry moved = *e;
          std::erase_if(s.waiting, [&](const TsEntry& x) {
            return x.person == u.person;
          });
          insert_sorted(s.assigned, moved);
        }
        break;
      }
      case Update::Kind::kMoveDown: {
        const TsEntry* e = s.find_assigned(u.person);
        if (e != nullptr) {
          TsEntry moved = *e;
          std::erase_if(s.assigned, [&](const TsEntry& x) {
            return x.person == u.person;
          });
          // The section 5.5 fix: timestamp order, not head-of-list.
          insert_sorted(s.waiting, moved);
        }
        break;
      }
    }
  }

  static core::DecisionResult<Update> decide(const Request& req,
                                             const State& s) {
    core::DecisionResult<Update> out;
    switch (req.kind) {
      case Request::Kind::kRequest:
        out.update = Update{Update::Kind::kRequest, req.person, req.stamp};
        break;
      case Request::Kind::kCancel:
        out.update = Update{Update::Kind::kCancel, req.person, 0};
        break;
      case Request::Kind::kMoveUp:
        if (s.al() < Capacity && s.wl() > 0) {
          const TsEntry& e = s.waiting.front();  // earliest request
          out.update = Update{Update::Kind::kMoveUp, e.person, e.stamp};
          out.external_actions.push_back(
              {"grant-seat", person_name(e.person)});
        }
        break;
      case Request::Kind::kMoveDown:
        if (s.al() > Capacity) {
          const TsEntry& e = s.assigned.back();  // latest request loses
          out.update = Update{Update::Kind::kMoveDown, e.person, e.stamp};
          out.external_actions.push_back(
              {"rescind-seat", person_name(e.person)});
        }
        break;
    }
    return out;
  }

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

  /// The section 4.1/5.2 classification carries over verbatim: the cost
  /// functions are identical and the decision parts differ only in WHICH
  /// person they select, not in WHEN they act — so safety, cost
  /// preservation, compensation, and the 900k/300k f-bounds hold by the
  /// same proofs (re-verified by property tests on this variant).
  struct Theory {
    static bool safe_for(const Request& r, int constraint) {
      if (constraint == kOverbooking) return r.kind != Request::Kind::kMoveUp;
      return r.kind == Request::Kind::kMoveUp;
    }
    static bool preserves_cost(const Request& r, int constraint) {
      if (constraint == kOverbooking) return true;
      return r.kind == Request::Kind::kMoveUp ||
             r.kind == Request::Kind::kMoveDown;
    }
    static double f_bound(int constraint, std::size_t k) {
      const double unit = constraint == kOverbooking
                              ? static_cast<double>(OverbookCost)
                              : static_cast<double>(UnderbookCost);
      return unit * static_cast<double>(k);
    }
    static Request compensator(int constraint) {
      return constraint == kOverbooking ? Request::move_down()
                                        : Request::move_up();
    }
  };

  /// Priority here is request-timestamp order within each list, with
  /// assigned outranking waiting — identical shape to the basic app, but
  /// now the list order always agrees with the request order.
  struct Priority {
    using Entity = Person;

    static std::vector<Entity> known(const State& s) {
      std::vector<Entity> out;
      for (const TsEntry& e : s.assigned) out.push_back(e.person);
      for (const TsEntry& e : s.waiting) out.push_back(e.person);
      return out;
    }

    static bool precedes(const State& s, Person p, Person q) {
      const TsEntry* pa = s.find_assigned(p);
      const TsEntry* qa = s.find_assigned(q);
      const TsEntry* pw = s.find_waiting(p);
      const TsEntry* qw = s.find_waiting(q);
      if (pa && qa) return *pa < *qa;
      if (pw && qw) return *pw < *qw;
      return pa != nullptr && qw != nullptr;
    }
  };
};

using TimestampedAirline = TimestampedAirlineT<100, 900, 300>;
using SmallTimestampedAirline = TimestampedAirlineT<5, 900, 300>;

}  // namespace apps::airline
