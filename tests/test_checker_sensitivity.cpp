// Checker sensitivity: a verification tool is only trustworthy if it
// REJECTS bad executions. Each test takes a valid execution, injects a
// specific violation (forged update, dropped prefix entry, wrong external
// action, broken bound...), and asserts the corresponding checker flags it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/airline_theorems.hpp"
#include "analysis/cost_bounds.hpp"
#include "analysis/execution_checker.hpp"
#include "analysis/fairness.hpp"
#include "analysis/incident.hpp"
#include "analysis/messages.hpp"
#include "analysis/streaming.hpp"
#include "apps/airline/airline.hpp"
#include "core/scripted.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "obs/metrics.hpp"
#include "shard/cluster.hpp"
#include "sim/fault_plan.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<20, 900, 300>;
using al::Request;
using al::Update;

/// A mid-sized valid execution to mutate.
core::Execution<Air> valid_execution(std::uint64_t seed) {
  auto sc = harness::wan(3);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(seed));
  harness::AirlineWorkload w;
  w.duration = 12.0;
  w.request_rate = 3.0;
  w.mover_rate = 3.0;
  harness::drive_airline(cluster, w, seed ^ 0xf);
  cluster.run_until(w.duration);
  cluster.settle();
  return cluster.execution();
}

TEST(CheckerSensitivity, BaselineIsClean) {
  const auto exec = valid_execution(1);
  EXPECT_TRUE(analysis::check_prefix_subsequence_condition(exec).ok());
  EXPECT_TRUE(analysis::is_transitive(exec));
}

TEST(CheckerSensitivity, ForgedUpdateDetected) {
  auto txs = valid_execution(2).transactions();
  // Find a MOVE-UP that chose someone and forge the person.
  for (auto& tx : txs) {
    if (tx.update.kind == Update::Kind::kMoveUp) {
      tx.update.person += 1000;
      break;
    }
  }
  const core::Execution<Air> forged(std::move(txs));
  EXPECT_FALSE(analysis::check_prefix_subsequence_condition(forged).ok());
}

TEST(CheckerSensitivity, DroppedPrefixEntryChangesDecisionDetected) {
  auto txs = valid_execution(3).transactions();
  // Remove the first prefix entry of a mover whose decision depends on it.
  bool mutated = false;
  for (auto& tx : txs) {
    if (!mutated && tx.update.kind == Update::Kind::kMoveUp &&
        !tx.prefix.empty()) {
      tx.prefix.erase(tx.prefix.begin());
      mutated = true;
    }
  }
  ASSERT_TRUE(mutated);
  const core::Execution<Air> forged(std::move(txs));
  // Either the decision re-run differs (condition (3)) or — if the dropped
  // entry was irrelevant — the execution may legitimately pass; use a
  // request-bearing prefix to make it relevant: accept either a flagged
  // report or unchanged decision, but SOME mutation must be caught across
  // seeds.
  const bool caught =
      !analysis::check_prefix_subsequence_condition(forged).ok();
  // Try more seeds if the first mutation was benign.
  if (!caught) {
    auto txs2 = valid_execution(13).transactions();
    for (auto& tx : txs2) {
      if (tx.update.kind == Update::Kind::kMoveUp && tx.prefix.size() > 2) {
        tx.prefix.clear();  // nuking the whole prefix is never benign for a
                            // mover that granted a seat
        break;
      }
    }
    EXPECT_FALSE(analysis::check_prefix_subsequence_condition(
                     core::Execution<Air>(std::move(txs2)))
                     .ok());
  }
}

TEST(CheckerSensitivity, ForgedExternalActionDetected) {
  auto txs = valid_execution(4).transactions();
  for (auto& tx : txs) {
    if (!tx.external_actions.empty()) {
      tx.external_actions[0].subject = "P31337";
      break;
    }
  }
  const core::Execution<Air> forged(std::move(txs));
  EXPECT_FALSE(analysis::check_prefix_subsequence_condition(forged).ok());
}

TEST(CheckerSensitivity, TransitivityHoleDetected) {
  // Build tx2 seeing tx1 but not tx0, where tx1 saw tx0.
  core::ScriptedExecution<Air> sx;
  sx.run(Request::request(1), {});
  sx.run(Request::request(2), {0});
  sx.run(Request::request(3), {1});  // sees 1 but not 0: not transitive
  EXPECT_FALSE(analysis::is_transitive(sx.execution()));
  EXPECT_FALSE(analysis::check_transitive(sx.execution()).ok());
}

TEST(CheckerSensitivity, OutOfRangePrefixEntryReportedNotThrown) {
  // The raw constructor accepts a prefix naming a transaction that does
  // not exist; transitivity must report it instead of indexing past the
  // execution.
  auto txs = valid_execution(5).transactions();
  ASSERT_GT(txs.size(), 4u);
  const std::size_t victim = txs.size() / 2;
  const std::size_t ref = txs.size() + 3;
  txs[victim].prefix.push_back(ref);
  const core::Execution<Air> forged(std::move(txs));
  bool transitive = true;
  EXPECT_NO_THROW(transitive = analysis::is_transitive(forged));
  EXPECT_FALSE(transitive);
  analysis::CheckReport report;
  EXPECT_NO_THROW(report = analysis::check_transitive(forged));
  ASSERT_EQ(report.violations().size(), 1u);
  EXPECT_EQ(report.violations()[0],
            analysis::msg::prefix_non_preceding(victim, ref));
  EXPECT_EQ(report.violation_tx(0), victim);
}

TEST(CheckerSensitivity, OutOfRangePrefixEntrySkipsOnlyItsDecisionReplay) {
  // The same forged entry through the §3.1 checker: reported under
  // condition (1), no throw, and conditions (2)/(3) skipped for the victim
  // alone — its forged external actions go unreported, the last
  // transaction's are caught.
  auto txs = valid_execution(5).transactions();
  ASSERT_GT(txs.size(), 4u);
  const std::size_t victim = txs.size() / 2;
  const std::size_t last = txs.size() - 1;
  const std::size_t ref = txs.size() + 3;
  txs[victim].prefix.push_back(ref);
  txs[victim].external_actions.push_back({"forged", "victim"});
  txs[last].external_actions.push_back({"forged", "last"});
  const core::Execution<Air> forged(std::move(txs));
  analysis::CheckReport report;
  EXPECT_NO_THROW(report = analysis::check_prefix_subsequence_condition(forged));
  const std::vector<std::string> want = {
      analysis::msg::prefix_non_preceding(victim, ref),
      analysis::msg::actions_mismatch(last)};
  EXPECT_EQ(report.violations(), want);
  EXPECT_EQ(report.violating_txs(), (std::vector<std::size_t>{victim, last}));
}

TEST(CheckerSensitivity, Theorem5CheckerRejectsWrongBound) {
  // With f == 0 the step-bound check must fail on any run where
  // overbooking ever increased.
  for (std::uint64_t seed = 5; seed < 15; ++seed) {
    auto sc = harness::partitioned_wan(4, 3.0, 15.0);
    shard::Cluster<Air> cluster(sc.cluster_config<Air>(seed));
    harness::AirlineWorkload w;
    w.duration = 20.0;
    w.request_rate = 3.0;
    w.mover_rate = 4.0;
    harness::drive_airline(cluster, w, seed);
    cluster.run_until(w.duration);
    cluster.settle();
    const auto exec = cluster.execution();
    double worst = 0.0;
    for (const auto& s : exec.actual_states()) {
      worst = std::max(worst, Air::cost(s, Air::kOverbooking));
    }
    if (worst == 0.0) continue;  // need a run with actual damage
    const auto report = analysis::check_theorem5(
        exec, Air::kOverbooking,
        [](const Request&, int) { return true; },
        [](int, std::size_t) { return 0.0; });
    EXPECT_FALSE(report.ok());
    return;
  }
  FAIL() << "no seed produced overbooking damage to test against";
}

TEST(CheckerSensitivity, Theorem20CheckerRejectsSpoofedPrefixes) {
  // Take a real partitioned run with an overbooking step and FORGE that
  // transaction's prefix to the complete one: now the prefix contains an
  // assignment witness for every assigned person (witness-k = 0), so the
  // refined bound is 0 while the jump is 900 — the checker must flag it.
  for (std::uint64_t seed = 301; seed <= 320; ++seed) {
    auto sc = harness::partitioned_wan(4, 3.0, 15.0);
    shard::Cluster<Air> cluster(sc.cluster_config<Air>(seed));
    harness::AirlineWorkload w;
    w.duration = 20.0;
    w.request_rate = 3.0;
    w.mover_rate = 4.0;
    w.cancel_fraction = 0.0;
    harness::drive_airline(cluster, w, seed);
    cluster.run_until(w.duration);
    cluster.settle();
    const auto exec = cluster.execution();
    auto txs = exec.transactions();
    const auto states = exec.actual_states();
    bool forged_one = false;
    for (std::size_t i = 0; i < txs.size() && !forged_one; ++i) {
      if (Air::cost(states[i + 1], Air::kOverbooking) >
          Air::cost(states[i], Air::kOverbooking)) {
        std::vector<std::size_t> complete(i);
        std::iota(complete.begin(), complete.end(), 0);
        txs[i].prefix = std::move(complete);
        forged_one = true;
      }
    }
    if (!forged_one) continue;  // this seed never overbooked
    const auto report =
        analysis::check_theorem20(core::Execution<Air>(std::move(txs)));
    EXPECT_FALSE(report.ok());
    return;
  }
  FAIL() << "no seed produced an overbooking step to forge";
}

TEST(CheckerSensitivity, FairnessCheckerDetectsPriorityRewrite) {
  // A scripted execution where a mover saw both requests with P<Q, then a
  // forged CANCEL+re-add flips them: Theorem 25's checker must flag it.
  core::ScriptedExecution<Air> sx;
  const auto r1 = sx.run(Request::request(1), {});
  const auto r2 = sx.run(Request::request(2), {r1});
  sx.run(Request::move_up(), {r1, r2});  // sees both, P1 < P2
  auto txs = sx.execution().transactions();
  // Forge a 4th transaction whose update erases P1 — the frozen P1 < P2
  // ordering no longer holds in the final state, which the checker must
  // flag. (The request/update mismatch also breaks condition (3), but we
  // exercise the fairness checker specifically.)
  core::TxInstance<Air> evil;
  evil.ts = core::Timestamp{99, 0};
  evil.request = Request::move_up();
  evil.prefix = {0, 1, 2};
  evil.update = Update{Update::Kind::kCancel, 1};
  txs.push_back(evil);
  const core::Execution<Air> forged(std::move(txs));
  const analysis::AirlineClassify cls;
  const auto report = analysis::check_theorem25(forged, cls);
  EXPECT_FALSE(report.ok());
}

TEST(CheckerSensitivity, GroupingRejectsOverclaimedK) {
  const auto preserves = [](const Request& r, int c) {
    return Air::Theory::preserves_cost(r, c);
  };
  for (std::uint64_t seed = 6; seed < 30; ++seed) {
    const auto exec = valid_execution(seed);
    const auto grouping =
        analysis::find_grouping(exec, Air::kUnderbooking, preserves);
    if (!grouping.has_value()) continue;
    const std::size_t k = analysis::grouping_hypothesis_k(
        exec, *grouping, Air::kUnderbooking, preserves);
    if (k == 0) continue;
    // Claiming a smaller k must be reported as a failed hypothesis.
    const auto report = analysis::check_theorem9(
        exec, *grouping, Air::kUnderbooking, preserves,
        [](int c, std::size_t kk) { return Air::Theory::f_bound(c, kk); },
        k - 1);
    EXPECT_FALSE(report.ok());
    return;
  }
  FAIL() << "no seed produced an incomplete execution with a grouping";
}

// --- Byzantine payload sensitivity ---------------------------------------
//
// The byzantine_payload fault mode corrupts, duplicates, and reorders
// update payloads at the broadcast receive path. The sensitivity demand:
// every seeded fault is either provably masked (dedup swallowed the
// duplicate, causal delivery absorbed the reorder, the substituted update
// folded to the same state) or reported by the streaming checker — never
// silently accepted into a replica.

/// Canonical byte serialization of an execution trace: two runs agree iff
/// these strings are identical (same idiom as the crash-recovery
/// determinism regression).
std::string execution_bytes(const core::Execution<Air>& exec) {
  std::ostringstream os;
  for (std::size_t i = 0; i < exec.size(); ++i) {
    const auto& tx = exec.tx(i);
    os << tx.ts.logical << ':' << tx.ts.node << " origin=" << tx.origin
       << " t=" << tx.real_time << " prefix[";
    for (std::size_t j : tx.prefix) os << j << ',';
    os << "] ext[";
    for (const auto& a : tx.external_actions) {
      os << a.kind << '=' << a.subject << ',';
    }
    os << "]\n";
  }
  return os.str();
}

TEST(ByzantineSensitivity, EveryAppliedCorruptionCaughtOrMasked) {
  std::uint64_t total_applied = 0;
  std::uint64_t runs_caught = 0;
  for (std::uint64_t seed = 60; seed < 72; ++seed) {
    auto sc = harness::wan(3);
    sc.faults.byzantine_payload(/*corrupt=*/0.2, 0.0, 0.0, 0.0, 1e18);
    shard::Cluster<Air> cluster(sc.cluster_config<Air>(seed));
    analysis::StreamingChecker<Air> ck(3);
    cluster.set_stream_observer(&ck);
    harness::AirlineWorkload w;
    w.duration = 12.0;
    w.request_rate = 3.0;
    w.mover_rate = 3.0;
    harness::drive_airline(cluster, w, seed ^ 0xf);
    // No settle(): corrupted replicas may never converge.
    cluster.run_until(w.duration);
    cluster.run_until(w.duration + 8.0);
    ck.finish(cluster.scheduler().now());

    const obs::MetricsRegistry reg = cluster.metrics();
    const std::uint64_t applied = reg.counters().at("broadcast.byz_corrupted");
    total_applied += applied;
    if (ck.divergence_events() > 0) {
      ++runs_caught;
    } else {
      // Zero divergence reported despite `applied` substitutions: each one
      // must have been effect-masked. Prove it — every replica's state
      // equals the clean replay of the true updates it merged.
      for (core::NodeId n = 0; n < 3; ++n) {
        EXPECT_EQ(cluster.node(n).state(), ck.shadow_state(n))
            << "seed " << seed << ": corruption silently accepted at node "
            << n;
      }
    }
  }
  // The sweep is only meaningful if the adversary landed hits and the
  // checker actually caught some.
  EXPECT_GT(total_applied, 0u);
  EXPECT_GT(runs_caught, 0u);
}

TEST(ByzantineSensitivity, DuplicatesAreMaskedByBroadcastDedup) {
  auto sc = harness::wan(3);
  sc.faults.byzantine_payload(0.0, /*duplicate=*/0.4, 0.0, 0.0, 1e18);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(77));
  analysis::StreamingChecker<Air> ck(3);
  cluster.set_stream_observer(&ck);
  harness::AirlineWorkload w;
  w.duration = 12.0;
  w.request_rate = 3.0;
  w.mover_rate = 3.0;
  harness::drive_airline(cluster, w, 77 ^ 0xf);
  cluster.run_until(w.duration);
  cluster.settle();  // duplication alone must not block convergence
  ck.finish(cluster.scheduler().now());

  const obs::MetricsRegistry reg = cluster.metrics();
  EXPECT_GT(reg.counters().at("broadcast.byz_duplicated"), 0u);
  // Every injected duplicate was swallowed by the accept-path dedup...
  EXPECT_GE(reg.counters().at("broadcast.duplicates_dropped"),
            reg.counters().at("broadcast.byz_duplicated"));
  // ...so nothing reached a replica twice: clean replays everywhere and a
  // clean oracle.
  EXPECT_EQ(ck.divergence_events(), 0u);
  EXPECT_EQ(ck.violation_count(), 0u);
  EXPECT_TRUE(
      analysis::check_prefix_subsequence_condition(cluster.execution()).ok());
}

TEST(ByzantineSensitivity, ReordersAreMaskedByCausalDelivery) {
  auto sc = harness::wan(3);
  sc.faults.byzantine_payload(0.0, 0.0, /*reorder=*/0.5, 0.0, 1e18);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(78));
  analysis::StreamingChecker<Air> ck(3);
  cluster.set_stream_observer(&ck);
  harness::AirlineWorkload w;
  w.duration = 12.0;
  w.request_rate = 3.0;
  w.mover_rate = 3.0;
  harness::drive_airline(cluster, w, 78 ^ 0xf);
  cluster.run_until(w.duration);
  cluster.settle();  // anti-entropy traffic flushes any held wire
  ck.finish(cluster.scheduler().now());

  const obs::MetricsRegistry reg = cluster.metrics();
  EXPECT_GT(reg.counters().at("broadcast.byz_reordered"), 0u);
  EXPECT_TRUE(cluster.converged());
  EXPECT_EQ(ck.divergence_events(), 0u);
  EXPECT_EQ(ck.violation_count(), 0u);
  EXPECT_TRUE(
      analysis::check_prefix_subsequence_condition(cluster.execution()).ok());
}

/// Determinism regression for the new fault mode: same seed, same plan →
/// byte-identical execution and metrics, divergence counts included.
TEST(ByzantineSensitivity, SameSeedRunsAreByteIdentical) {
  auto run = [](std::string* bytes, std::string* metrics_json) {
    auto sc = harness::wan(3);
    sc.faults.byzantine_payload(0.15, 0.1, 0.1, 0.0, 1e18);
    shard::Cluster<Air> cluster(sc.cluster_config<Air>(79));
    analysis::StreamingChecker<Air> ck(3);
    cluster.set_stream_observer(&ck);
    harness::AirlineWorkload w;
    w.duration = 12.0;
    w.request_rate = 3.0;
    w.mover_rate = 3.0;
    harness::drive_airline(cluster, w, 79 ^ 0xf);
    cluster.run_until(w.duration);
    cluster.run_until(w.duration + 8.0);
    ck.finish(cluster.scheduler().now());
    *bytes = execution_bytes(cluster.execution());
    *metrics_json = cluster.metrics().to_json();
  };
  std::string b1, m1, b2, m2;
  run(&b1, &m1);
  run(&b2, &m2);
  EXPECT_EQ(b1, b2);
  EXPECT_EQ(m1, m2);
}

/// An armed-but-dormant adversary (active window entirely after the run)
/// must not perturb the execution at all — the corruption draws are gated
/// on the window, not merely discarded.
TEST(ByzantineSensitivity, DormantWindowLeavesRunUntouched) {
  auto run = [](bool armed) {
    auto sc = harness::wan(3);
    if (armed) {
      sc.faults.byzantine_payload(0.5, 0.5, 0.5, /*start=*/1e6, /*end=*/2e6);
    }
    shard::Cluster<Air> cluster(sc.cluster_config<Air>(80));
    harness::AirlineWorkload w;
    w.duration = 12.0;
    w.request_rate = 3.0;
    w.mover_rate = 3.0;
    harness::drive_airline(cluster, w, 80 ^ 0xf);
    cluster.run_until(w.duration);
    cluster.settle();
    return execution_bytes(cluster.execution());
  };
  EXPECT_EQ(run(false), run(true));
}

/// Every seeded corruption the streaming checker catches must yield a
/// forensic bundle whose ATTRIBUTED epoch contains the faulty admission:
/// the violating update's originate event falls inside the span of the
/// epoch the bundle blames. A partition window overlaps the run so the
/// admission/detection distinction is live — damage admitted while the
/// cut is open is frequently detected only after the heal.
///
/// When INCIDENT_ARTIFACT_DIR is set (the CI sensitivity job sets it),
/// every bundle is also written as JSON — uploaded as the debugging
/// artifact when the job fails.
TEST(ByzantineSensitivity, IncidentBundlesAttributeAdmissionEpochs) {
  std::size_t bundles = 0, attributed = 0;
  const char* artifact_dir = std::getenv("INCIDENT_ARTIFACT_DIR");
  for (std::uint64_t seed = 60; seed < 72; ++seed) {
    auto sc = harness::wan(3);
    sc.faults.byzantine_payload(/*corrupt=*/0.2, 0.0, 0.0, 0.0, 1e18);
    sc.faults.split_halves(3, 1, 4.0, 8.0);
    sc.trace.enabled = true;
    sc.trace.ring_capacity = 1 << 15;
    shard::Cluster<Air> cluster(sc.cluster_config<Air>(seed));
    obs::VectorSink capture;
    cluster.tracer()->add_sink(&capture);
    analysis::StreamingChecker<Air> ck(3);
    cluster.set_stream_observer(&ck);
    harness::AirlineWorkload w;
    w.duration = 12.0;
    w.request_rate = 3.0;
    w.mover_rate = 3.0;
    harness::drive_airline(cluster, w, seed ^ 0xf);
    cluster.run_until(w.duration);
    cluster.run_until(w.duration + 8.0);
    ck.finish(cluster.scheduler().now());
    if (ck.incident_seeds().empty()) continue;

    const obs::MetricsRegistry reg = cluster.metrics();
    const obs::IncidentReport bundle =
        analysis::build_incident_report(ck, capture.events(), &reg);
    ASSERT_FALSE(bundle.empty()) << "seed " << seed;
    ++bundles;
    if (artifact_dir != nullptr) {
      std::ofstream out(std::string(artifact_dir) + "/incident_seed" +
                        std::to_string(seed) + ".json");
      out << bundle.to_json();
    }
    for (const obs::Incident& inc : bundle.incidents()) {
      if (!inc.in_stream) continue;
      // The admission anchor: the chain's originate event, else (ring
      // truncation) its earliest retained event — same rule the builder
      // applies.
      const obs::Event* anchor = &inc.chain.front();
      for (const obs::Event& e : inc.chain) {
        if (e.type == obs::EventType::kBroadcastOriginate) {
          anchor = &e;
          break;
        }
      }
      const obs::Epoch& adm = bundle.epochs().epoch(inc.admitted_epoch);
      EXPECT_GE(anchor->time, adm.start) << "seed " << seed;
      if (inc.admitted_epoch + 1 < bundle.epochs().size()) {
        EXPECT_LE(anchor->time, adm.end) << "seed " << seed;
      }
      // Detection never precedes admission.
      EXPECT_GE(inc.detected_epoch, inc.admitted_epoch) << "seed " << seed;
      ++attributed;
    }
    // The checker's own counter rode along in the bundle and carries the
    // TRUE total — at least the retained (possibly capped) seed rows.
    EXPECT_EQ(bundle.metrics().counters().at("checker.incident_seeds"),
              ck.incident_seeds_total())
        << "seed " << seed;
    EXPECT_GE(ck.incident_seeds_total(), ck.incident_seeds().size());
  }
  // The sweep is only meaningful if violations fired and were attributed.
  EXPECT_GT(bundles, 0u);
  EXPECT_GT(attributed, 0u);
}

/// The airline with a REQUEST update that forgets "provided that P is not
/// already on either list": a repeated request puts P on the WAIT-LIST
/// twice. The model forbids such updates, which is exactly why it makes
/// ill-formed states to feed the checkers.
struct LeakyAirline : Air {
  static std::string name() { return "leaky-airline"; }
  static void apply(const Update& u, State& s) {
    if (u.kind == Update::Kind::kRequest) {
      s.waiting.push_back(u.person);
    } else {
      Air::apply(u, s);
    }
  }
};

/// Every (tx, message) pair of a report, sorted: two reports agree on this
/// iff they name the same messages at the same transaction indices.
std::vector<std::pair<std::size_t, std::string>> attributed(
    const analysis::CheckReport& r) {
  std::vector<std::pair<std::size_t, std::string>> out;
  for (std::size_t i = 0; i < r.violations().size(); ++i) {
    out.emplace_back(r.violation_tx(i), r.violations()[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(CheckerSensitivity, IllFormedStatesReportedByOracle) {
  // tx0 and tx1 both REQUEST P1, neither seeing the other: the actual
  // state after tx1 holds P1 twice. tx2's MOVE-UP sees both, so its
  // apparent state is ill-formed; its update removes every copy of P1.
  core::ScriptedExecution<LeakyAirline> sx;
  sx.run(Request::request(1), {});
  sx.run(Request::request(1), {});
  sx.run(Request::move_up(), {0, 1});
  const auto report =
      analysis::check_prefix_subsequence_condition(sx.execution());
  using Attributed = std::vector<std::pair<std::size_t, std::string>>;
  EXPECT_EQ(attributed(report),
            (Attributed{{1, analysis::msg::actual_ill_formed(1)},
                        {2, analysis::msg::apparent_ill_formed(2)}}));
}

TEST(CheckerSensitivity, IllFormedStatesReportedAlikeByStreamingAndOracle) {
  // A partitioned run with repeated requests: the streaming checker must
  // flag the same ill-formed apparent and actual states, at the same
  // transaction indices, as the post-hoc oracle.
  auto sc = harness::partitioned_wan(3, 3.0, 9.0);
  shard::Cluster<LeakyAirline> cluster(sc.cluster_config<LeakyAirline>(41));
  analysis::StreamingChecker<LeakyAirline> ck(3);
  cluster.set_stream_observer(&ck);
  harness::AirlineWorkload w;
  w.duration = 12.0;
  w.request_rate = 3.0;
  w.mover_rate = 3.0;
  w.duplicate_request_fraction = 0.3;
  harness::drive_airline(cluster, w, 41);
  cluster.run_until(w.duration);
  cluster.settle();
  ck.finish(cluster.scheduler().now());

  const auto exec = cluster.execution();
  ASSERT_EQ(ck.txs_finalized(), exec.size());
  EXPECT_EQ(ck.order_violations(), 0u);
  const auto oracle = analysis::check_prefix_subsequence_condition(exec);
  EXPECT_EQ(attributed(ck.prefix_report()), attributed(oracle));
  std::size_t apparent = 0, actual = 0;
  for (std::size_t i = 0; i < oracle.violations().size(); ++i) {
    const std::size_t tx = oracle.violation_tx(i);
    const std::string& m = oracle.violations()[i];
    apparent += m == analysis::msg::apparent_ill_formed(tx) ? 1 : 0;
    actual += m == analysis::msg::actual_ill_formed(tx) ? 1 : 0;
  }
  EXPECT_GT(apparent, 0u);
  EXPECT_GT(actual, 0u);
}

TEST(CheckerSensitivity, AtomicityCheckerRejectsInterlopers) {
  core::ScriptedExecution<Air> sx;
  sx.run(Request::request(1), {});
  const auto m0 = sx.run(Request::move_up(), {0});
  sx.run(Request::request(2), {0, m0});
  // Range [1,2]: tx2 sees tx1, but gained NEW outside info (tx0 vs tx1's
  // base {0}) — wait, tx1's base is {0} and tx2's below-range part is also
  // {0}: atomic. Now a genuinely different base:
  sx.run(Request::move_up(), {2});  // tx3: base {2} excludes 0
  EXPECT_FALSE(analysis::is_atomic(sx.execution(), 1, 3));
}

}  // namespace
