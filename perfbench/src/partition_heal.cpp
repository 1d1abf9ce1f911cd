// partition_heal: repeated half/half partitions and one amnesia restart on
// a 5-node LAN, with the streaming checker attached for the whole run and
// the full post-hoc oracle stack afterwards.
//
// Where wan_flash's WAN reorders make shallow, steady mid-inserts, here a
// heal delivers a whole partition's worth of the other side's updates in
// bulk, deep below the log tail — and anti-entropy repair, amnesia
// catch-up, the streaming checker and the O(n^2) oracles do most of the
// work. The traffic is the repository's standard airline mix; a client
// routes each submission to a node that is up (it never meets the crashed
// one), so no submission is rejected.
#include <algorithm>
#include <memory>
#include <vector>

#include "analysis/cost_bounds.hpp"
#include "analysis/execution_checker.hpp"
#include "analysis/streaming.hpp"
#include "apps/airline/airline.hpp"
#include "des.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "lag_observer.hpp"
#include "shard/cluster.hpp"
#include "sim/fault_plan.hpp"
#include "sim/rng.hpp"

namespace perfbench {
namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<50, 900, 300>;
using Checker = analysis::StreamingChecker<Air>;

constexpr std::size_t kNodes = 5;
constexpr double kLoadSeconds = 38.0;
/// Offered load: exactly kSubmissions at uniform random instants over the
/// load window (a Poisson stream conditioned on its count). A fixed count
/// keeps the O(n^3) oracle's cost the same for every seed.
constexpr std::size_t kSubmissions = 640;
/// The oracle stack costs O(n^3) (transitivity) against the run's O(n), so
/// it runs on every kOracleEvery-th sub-seed only (spread over the whole
/// run); every rep runs the linear output checks.
constexpr std::size_t kOracleEvery = 32;
/// Half/half cuts (2 | 3 nodes) of six simulated seconds each.
constexpr double kCuts[][2] = {{3.0, 9.0}, {13.0, 19.0}, {23.0, 29.0}};
/// Node 4 crashes and restarts with amnesia (empty log, full re-merge).
constexpr core::NodeId kCrashNode = 4;
constexpr double kCrashStart = 31.0, kCrashEnd = 34.0;
/// A client treats the node as down this long around the crash window.
constexpr double kRouteMargin = 0.01;

bool air_preserves(const al::Request& r, int c) {
  return Air::Theory::preserves_cost(r, c);
}
bool air_unsafe(const al::Request& r, int c) {
  return !Air::Theory::safe_for(r, c);
}
double air_f(int c, std::size_t k) { return Air::Theory::f_bound(c, k); }

struct Submission {
  double time;
  core::NodeId node;
  al::Request request;
};

/// The mix of the standard airline workload (harness::AirlineWorkload's
/// defaults: 4 REQUESTs/s, 15% of requesters cancel, 4 movers/s of which
/// 30% MOVE-DOWN) with its rates turned into shares of a fixed count:
/// every submission is a mover, a CANCEL or a REQUEST in proportion to the
/// three streams' rates (47% / 7% / 47% here). A REQUEST comes from the
/// next new person (cycling through max_persons), a CANCEL from a random
/// requester who has not canceled yet.
std::vector<Submission> build_schedule(std::uint64_t seed) {
  const harness::AirlineWorkload w;
  const double movers = w.mover_rate;
  const double cancels = w.request_rate * w.cancel_fraction;
  const double total = movers + cancels + w.request_rate;
  sim::Rng rng(seed);
  std::vector<double> times(kSubmissions);
  for (double& t : times) t = rng.uniform(0.0, kLoadSeconds);
  std::sort(times.begin(), times.end());
  std::vector<Submission> out;
  std::vector<al::Person> requesters;  // requested, not yet canceled
  std::uint32_t requests = 0;
  for (const double t : times) {
    const double roll = rng.uniform(0.0, total);
    al::Request req;
    if (roll < movers) {
      req = rng.bernoulli(w.move_down_fraction) ? al::Request::move_down()
                                                : al::Request::move_up();
    } else if (roll < movers + cancels && !requesters.empty()) {
      const auto i = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(requesters.size()) - 1));
      req = al::Request::cancel(requesters[i]);
      requesters[i] = requesters.back();
      requesters.pop_back();
    } else {
      const al::Person p = 1 + requests++ % w.max_persons;
      requesters.push_back(p);
      req = al::Request::request(p);
    }
    const bool crash_down =
        t > kCrashStart - kRouteMargin && t < kCrashEnd + kRouteMargin;
    const std::int64_t up = static_cast<std::int64_t>(kNodes) - (crash_down ? 1 : 0);
    auto node = static_cast<core::NodeId>(rng.uniform_int(0, up - 1));
    if (crash_down && node >= kCrashNode) ++node;
    out.push_back({t, node, req});
  }
  return out;
}

shard::ClusterConfig config(std::uint64_t seed, bool traced) {
  harness::Scenario sc = harness::lan(kNodes);
  sc.faults = sim::FaultPlan(seed ^ 0xfa);
  for (const auto& cut : kCuts) {
    sc.faults.split_halves(kNodes, 2, cut[0], cut[1]);
  }
  sc.faults.crash(kCrashNode, kCrashStart, kCrashEnd,
                  sim::RecoveryMode::kAmnesia);
  sc.trace.enabled = traced;
  return sc.cluster_config<Air>(seed ^ 0x9a7);
}

Checker::Options checker_options() {
  Checker::Options o;
  for (int c = 0; c < Air::kNumConstraints; ++c) {
    o.theorem5.push_back({c, air_preserves, air_f});
  }
  return o;
}

/// Declaration order: the cluster is destroyed first, before the sink and
/// observers it points to.
struct Armed {
  std::vector<Submission> schedule;
  std::unique_ptr<LayerSink> sink;
  std::unique_ptr<Checker> checker;
  std::unique_ptr<LagObserver<Air>> lag;
  std::unique_ptr<shard::Cluster<Air>> cluster;
  std::vector<double> submit_us;
  double schedule_s = 0.0;
};

std::unique_ptr<Armed> arm(std::uint64_t seed, bool traced) {
  auto a = std::make_unique<Armed>();
  const Clock::time_point t0 = Clock::now();
  a->schedule = build_schedule(seed);
  a->schedule_s = seconds_between(t0, Clock::now());
  a->cluster = std::make_unique<shard::Cluster<Air>>(config(seed, traced));
  shard::Cluster<Air>& c = *a->cluster;
  if (traced) {
    a->sink = std::make_unique<LayerSink>(1);
    c.tracer()->add_sink(a->sink.get());
    a->submit_us.reserve(a->schedule.size());
  }
  std::vector<double> events;
  for (const auto& cut : kCuts) events.push_back(cut[1]);
  events.push_back(kCrashEnd);
  events.push_back(a->schedule.back().time + 1e-9);  // end of load
  a->checker = std::make_unique<Checker>(kNodes, checker_options());
  a->lag = std::make_unique<LagObserver<Air>>(kNodes, std::move(events),
                                              a->checker.get(), a->sink.get());
  c.set_stream_observer(a->lag.get());
  Armed* raw = a.get();
  for (std::size_t i = 0; i < a->schedule.size(); ++i) {
    c.scheduler().schedule_at(a->schedule[i].time, [raw, i] {
      shard::Cluster<Air>& cl = *raw->cluster;
      const Submission& s = raw->schedule[i];
      if (raw->sink) {
        const std::int64_t b = raw->sink->begin(0, Layer::kShard);
        cl.node(s.node).try_submit(s.request, cl.scheduler().now());
        raw->submit_us.push_back(static_cast<double>(raw->sink->end(0, b)) /
                                 1e3);
      } else {
        cl.node(s.node).try_submit(s.request, cl.scheduler().now());
      }
    });
  }
  return a;
}

/// The post-hoc oracle stack: execution assembly, the §3.1 prefix-
/// subsequence condition, §3.2 transitivity, state == replay, the §5
/// airline cost bounds (theorems 5 and 7), and streaming == post-hoc.
void oracles(Armed& a, DesRep& r, Result& res) {
  shard::Cluster<Air>& c = *a.cluster;
  const Clock::time_point t0 = Clock::now();
  const core::Execution<Air> exec = c.execution();
  const Clock::time_point t1 = Clock::now();
  const analysis::CheckReport prefix =
      analysis::check_prefix_subsequence_condition(exec);
  const Clock::time_point t2 = Clock::now();
  bool ok = analysis::is_transitive(exec);
  res.check(ok, "execution is transitive");
  ok = exec.final_state() == c.node(0).state();
  res.check(ok, "replica state equals the execution's replay");
  a.checker->finish(c.scheduler().now());
  for (int k = 0; k < Air::kNumConstraints; ++k) {
    const analysis::CheckReport t5 =
        analysis::check_theorem5(exec, k, air_preserves, air_f);
    res.check(t5.ok(), "theorem 5 holds for constraint " + std::to_string(k));
    res.check(t5.violations() ==
                  a.checker->theorem5_reports()[static_cast<std::size_t>(k)]
                      .violations(),
              "streaming theorem 5 agrees with post-hoc");
  }
  res.check(
      analysis::check_theorem7(exec, Air::kOverbooking, air_unsafe, air_f).ok(),
      "theorem 7 holds for overbooking");
  res.check(prefix.violations() == a.checker->prefix_report().violations() &&
                a.checker->txs_finalized() == exec.size() &&
                a.checker->order_violations() == 0 &&
                a.checker->divergence_events() == 0,
            "streaming checker agrees with post-hoc");
  const Clock::time_point t3 = Clock::now();
  res.check(prefix.ok(), "prefix subsequence condition holds");
  std::size_t entries = 0;
  for (std::size_t i = 0; i < exec.size(); ++i) entries += exec.tx(i).prefix.size();
  r.execution_build_s = seconds_between(t0, t1);
  r.prefix_check_s = seconds_between(t1, t2);
  r.other_checks_s = seconds_between(t2, t3);
  r.verify_s = seconds_between(t0, t3);
  r.verified = true;
  r.prefix_entries_per_tx =
      ratio(static_cast<double>(entries), static_cast<double>(exec.size()));
}

DesRep rep(std::uint64_t seed, bool traced, bool oracle) {
  DesRep r;
  Result& res = r.checks;
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Armed> a = arm(seed, traced);
  const Clock::time_point t1 = Clock::now();
  shard::Cluster<Air>& c = *a->cluster;
  c.run_until(kLoadSeconds);
  c.settle();
  const Clock::time_point t2 = Clock::now();
  r.attempted = a->schedule.size();
  r.admitted = r.attempted - c.aggregate_engine_stats().rejected_submissions;
  linear_checks<Air>(c, r.admitted, res);
  if (oracle) oracles(*a, r, res);
  r.schedule_s = a->schedule_s;
  r.setup_s = seconds_between(t0, t1);
  r.run_s = seconds_between(t1, t2);
  res.check(a->lag->lags_ms(&r.lag_ms), "every update reached every replica");
  res.check(a->lag->recovery_ms(&r.recovery_ms),
            "every heal and restart recovered");
  r.counters = c.metrics().counters();
  if (traced) {
    r.trace = summarize_trace(a->sink->totals(), a->submit_us, r.run_s, 1.0);
    r.trace.stream_us_per_delivery =
        ratio(a->lag->inner_s() * 1e6, static_cast<double>(a->lag->deliveries()));
  }
  return r;
}

}  // namespace

Result run_partition_heal(const Args& args) {
  const DesFold reps = run_des_reps(
      args, 2 * kOracleEvery, kOracleEvery,
      [](std::uint64_t sub, bool traced, bool oracle) {
        return rep(sub, traced, oracle);
      });
  std::vector<std::string> notes;
  Result res = summarize_des(args, reps, &notes);
  print_result(res, notes);
  return res;
}

}  // namespace perfbench
