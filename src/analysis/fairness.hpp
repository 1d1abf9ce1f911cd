// Fairness checkers (paper sections 4.2 and 5.5).
//
// Section 4.2 defines priority preservation per transaction; section 5.5
// proves the execution-level fairness theorems: once the (centralized)
// moving "agent" has seen both requests, the pair's relative priority is
// frozen (Theorem 25); and with orderly, t-bounded-delay executions, a
// request made at least t earlier keeps priority (Lemma 26 / Theorem 27).
//
// Genericity: the checkers work for any application exposing a Priority
// model (known entities + precedes relation) plus a `Classify` policy that
// says which requests are the REQUEST / CANCEL of an entity and which are
// "movers" (the transactions the agent centralizes). The airline supplies
// `AirlineClassify` below; other resource allocators can supply their own.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "analysis/report.hpp"
#include "apps/airline/airline.hpp"
#include "core/execution.hpp"

namespace analysis {

/// Section 4.2, weak form: "T preserves priority provided that if
/// T(s,s) = s' then (a) if P and Q are both known in s and in s', and P
/// precedes Q in s, then P precedes Q in s'; (b) if P is known in s and Q
/// is not, and both are known in s', then P precedes Q in s'."
/// Counterexample search over `sample` decision states.
template <core::Application App, class Prio = typename App::Priority>
CheckReport check_preserves_priority(
    const std::vector<typename App::State>& sample,
    const typename App::Request& request) {
  CheckReport report("preserves-priority (§4.2)");
  for (std::size_t d = 0; d < sample.size(); ++d) {
    const auto& s = sample[d];
    const auto decision = App::decide(request, s);
    typename App::State s_prime = s;
    App::apply(decision.update, s_prime);
    const auto known_before = Prio::known(s);
    const auto known_after = Prio::known(s_prime);
    const auto known_in = [](const auto& v, auto e) {
      return std::find(v.begin(), v.end(), e) != v.end();
    };
    for (auto p : known_after) {
      for (auto q : known_after) {
        if (p == q) continue;
        const bool p_before = known_in(known_before, p);
        const bool q_before = known_in(known_before, q);
        if (p_before && q_before) {
          if (Prio::precedes(s, p, q) && !Prio::precedes(s_prime, p, q)) {
            std::ostringstream os;
            os << "sample " << d << ": order of known pair inverted by T(s,s)";
            report.add_violation(os.str());
          }
        } else if (p_before && !q_before) {
          if (!Prio::precedes(s_prime, p, q)) {
            std::ostringstream os;
            os << "sample " << d
               << ": newly known entity not placed after existing one";
            report.add_violation(os.str());
          }
        }
      }
    }
  }
  return report;
}

/// Section 4.2, strong form: the same two conditions for T(s, s') = s''
/// where the update runs against a state s' other than the observed s.
/// Counterexample search over (decision state, application state) pairs.
template <core::Application App, class Prio = typename App::Priority>
CheckReport check_strongly_preserves_priority(
    const std::vector<typename App::State>& decision_states,
    const std::vector<typename App::State>& apply_states,
    const typename App::Request& request) {
  CheckReport report("strongly-preserves-priority (§4.2)");
  const auto known_in = [](const auto& v, auto e) {
    return std::find(v.begin(), v.end(), e) != v.end();
  };
  for (std::size_t d = 0; d < decision_states.size(); ++d) {
    const auto decision = App::decide(request, decision_states[d]);
    for (std::size_t a = 0; a < apply_states.size(); ++a) {
      const auto& s_prime = apply_states[a];
      typename App::State s_dprime = s_prime;
      App::apply(decision.update, s_dprime);
      const auto known_before = Prio::known(s_prime);
      const auto known_after = Prio::known(s_dprime);
      for (auto p : known_after) {
        for (auto q : known_after) {
          if (p == q) continue;
          const bool p_before = known_in(known_before, p);
          const bool q_before = known_in(known_before, q);
          if (p_before && q_before) {
            if (Prio::precedes(s_prime, p, q) &&
                !Prio::precedes(s_dprime, p, q)) {
              std::ostringstream os;
              os << "decision state " << d << " applied to state " << a
                 << ": order inverted";
              report.add_violation(os.str());
            }
          } else if (p_before && !q_before) {
            if (!Prio::precedes(s_dprime, p, q)) {
              std::ostringstream os;
              os << "decision state " << d << " applied to state " << a
                 << ": new entity ahead of existing one";
              report.add_violation(os.str());
            }
          }
        }
      }
    }
  }
  return report;
}

/// Per-entity request/cancel/mover classification for the fairness
/// theorems. Entity must match App::Priority::Entity.
struct AirlineClassify {
  using Request = apps::airline::Request;
  using Entity = apps::airline::Person;

  std::optional<Entity> request_of(const Request& r) const {
    if (r.kind == Request::Kind::kRequest) return r.person;
    return std::nullopt;
  }
  std::optional<Entity> cancel_of(const Request& r) const {
    if (r.kind == Request::Kind::kCancel) return r.person;
    return std::nullopt;
  }
  bool is_mover(const Request& r) const {
    return r.kind == Request::Kind::kMoveUp ||
           r.kind == Request::Kind::kMoveDown;
  }
};

/// Entities eligible for the fairness theorems: exactly one REQUEST and no
/// CANCEL in the execution. Returns entity -> index of its REQUEST.
template <core::Application App, class Classify>
std::map<typename App::Priority::Entity, std::size_t> eligible_entities(
    const core::Execution<App>& exec, const Classify& cls) {
  using Entity = typename App::Priority::Entity;
  std::map<Entity, std::vector<std::size_t>> requests;
  std::map<Entity, std::size_t> cancels;
  for (std::size_t i = 0; i < exec.size(); ++i) {
    if (auto e = cls.request_of(exec.tx(i).request)) {
      requests[*e].push_back(i);
    }
    if (auto e = cls.cancel_of(exec.tx(i).request)) ++cancels[*e];
  }
  std::map<Entity, std::size_t> out;
  for (const auto& [e, idxs] : requests) {
    if (idxs.size() == 1 && cancels.find(e) == cancels.end()) {
      out.emplace(e, idxs.front());
    }
  }
  return out;
}

/// Theorem 25: "Let T be a MOVE-UP or MOVE-DOWN transaction having both
/// REQUEST(P) and REQUEST(Q) in its prefix subsequence. Let t be the
/// apparent state, and s the actual state, before T. If P < Q in t, then
/// also P < Q in s and all other actual database states occurring later."
/// Hypotheses (transitive execution, centralized movers, eligible P and Q)
/// must hold; the caller asserts them via the execution_checker functions.
/// The apparent states come from one Execution::for_each_apparent_state
/// pass, which skips a mover whose prefix names no transaction.
template <core::Application App, class Classify,
          class Prio = typename App::Priority>
CheckReport check_theorem25(const core::Execution<App>& exec,
                            const Classify& cls) {
  CheckReport report("theorem 25 priority freeze");
  const auto eligible = eligible_entities<App>(exec, cls);
  const auto states = exec.actual_states();
  exec.for_each_apparent_state([&](std::size_t m,
                                   const typename App::State& t) {
    if (!cls.is_mover(exec.tx(m).request)) return;
    const auto& prefix = exec.tx(m).prefix;
    const auto in_prefix = [&prefix](std::size_t idx) {
      return std::binary_search(prefix.begin(), prefix.end(), idx);
    };
    for (const auto& [p, p_req] : eligible) {
      if (!in_prefix(p_req)) continue;
      for (const auto& [q, q_req] : eligible) {
        if (p == q || !in_prefix(q_req)) continue;
        if (!Prio::precedes(t, p, q)) continue;
        // Conclusion: P < Q in the actual state before T and ever after.
        for (std::size_t si = m; si < states.size(); ++si) {
          if (!Prio::precedes(states[si], p, q)) {
            std::ostringstream os;
            os << "mover tx " << m << " saw " << p << " < " << q
               << " but actual state " << si << " has the order inverted";
            report.add_violation(os.str());
          }
        }
      }
    }
  });
  return report;
}

/// Lemma 26: eligible P, Q with REQUEST(P) before REQUEST(Q), such that
/// every mover having REQUEST(Q) in its prefix also has REQUEST(P):
/// then P < Q in every actual state in which both are known.
template <core::Application App, class Classify,
          class Prio = typename App::Priority>
CheckReport check_lemma26(const core::Execution<App>& exec,
                          const Classify& cls) {
  CheckReport report("lemma 26 request-order fairness");
  const auto eligible = eligible_entities<App>(exec, cls);
  const auto states = exec.actual_states();
  for (const auto& [p, p_req] : eligible) {
    for (const auto& [q, q_req] : eligible) {
      if (p == q || !(p_req < q_req)) continue;
      // Hypothesis: movers that see REQUEST(Q) also see REQUEST(P).
      bool hypothesis = true;
      for (std::size_t m = 0; m < exec.size() && hypothesis; ++m) {
        if (!cls.is_mover(exec.tx(m).request)) continue;
        const auto& prefix = exec.tx(m).prefix;
        const bool sees_q =
            std::binary_search(prefix.begin(), prefix.end(), q_req);
        const bool sees_p =
            std::binary_search(prefix.begin(), prefix.end(), p_req);
        if (sees_q && !sees_p) hypothesis = false;
      }
      if (!hypothesis) continue;
      for (std::size_t si = 0; si < states.size(); ++si) {
        const auto known = Prio::known(states[si]);
        const auto has = [&known](auto e) {
          return std::find(known.begin(), known.end(), e) != known.end();
        };
        if (has(p) && has(q) && !Prio::precedes(states[si], p, q)) {
          std::ostringstream os;
          os << "entities " << p << " (req tx " << p_req << ") and " << q
             << " (req tx " << q_req << "): state " << si
             << " orders them against request order";
          report.add_violation(os.str());
        }
      }
    }
  }
  return report;
}

/// Theorem 27: with an orderly, t-bounded-delay, transitive execution and
/// centralized movers, every eligible pair whose REQUESTs are at least
/// `t` apart in real time keeps request order in every actual state where
/// both are known. (The t-bounded-delay hypothesis makes Lemma 26's
/// per-pair hypothesis automatic; this checker verifies the conclusion
/// directly.)
template <core::Application App, class Classify,
          class Prio = typename App::Priority>
CheckReport check_theorem27(const core::Execution<App>& exec,
                            const Classify& cls, double t) {
  CheckReport report("theorem 27 t-separated fairness");
  const auto eligible = eligible_entities<App>(exec, cls);
  const auto states = exec.actual_states();
  for (const auto& [p, p_req] : eligible) {
    for (const auto& [q, q_req] : eligible) {
      if (p == q || !(p_req < q_req)) continue;
      if (exec.tx(q_req).real_time - exec.tx(p_req).real_time < t) continue;
      for (std::size_t si = 0; si < states.size(); ++si) {
        const auto known = Prio::known(states[si]);
        const auto has = [&known](auto e) {
          return std::find(known.begin(), known.end(), e) != known.end();
        };
        if (has(p) && has(q) && !Prio::precedes(states[si], p, q)) {
          std::ostringstream os;
          os << "pair (" << p << "," << q << ") separated by >= " << t
             << "s loses request order in state " << si;
          report.add_violation(os.str());
        }
      }
    }
  }
  return report;
}

/// The section 5.5 anomaly metric: eligible pairs whose final-state order
/// contradicts their request order. The basic airline can have these; the
/// timestamped redesign should have none (experiment E7b).
template <core::Application App, class Classify,
          class Prio = typename App::Priority>
std::size_t final_order_inversions(const core::Execution<App>& exec,
                                   const Classify& cls) {
  const auto eligible = eligible_entities<App>(exec, cls);
  const typename App::State final = exec.final_state();
  const auto known = Prio::known(final);
  const auto has = [&known](auto e) {
    return std::find(known.begin(), known.end(), e) != known.end();
  };
  std::size_t inversions = 0;
  for (const auto& [p, p_req] : eligible) {
    for (const auto& [q, q_req] : eligible) {
      if (p == q || !(p_req < q_req)) continue;
      if (has(p) && has(q) && Prio::precedes(final, q, p)) ++inversions;
    }
  }
  return inversions;
}

}  // namespace analysis
