// wan_flash: the E25 open-loop saturation schedule on a 4-node WAN.
//
// The schedule is E25's (bench/e25_saturation.cpp), with the seed as an
// argument and the base rate at 0.5x: a 30 s diurnal triangle wave (x0.5 ..
// x1.5 around 12.5 tx per 50 ms tick) with a 3x flash crowd over 12 s ..
// 15 s, Zipf(s = 1) keys over 400 persons, 30% cancels. Each tick's burst is
// submitted in one scheduler dispatch, as a real ingress queue drains.
// max_batch = 8, compaction on, checkpoint_interval = 32 with
// max_checkpoints = 8 — the configuration in which the merge engine does
// nearly all the work (WAN reorders turn most deliveries into mid-inserts).
//
// Why 0.5x: an input's merge work varies with the network draws (the
// throughput of single inputs has a coefficient of variation of ~0.21 at
// every rate tried), so a run's median is only as steady as the number of
// inputs it averages. At E25's full rate one input takes ~9 s and a run
// fits ~4; at 0.5x an input takes ~0.7 s and a run averages ~45. The
// merge engine still dominates: 75% of deliveries are mid-inserts, at ~250
// redos each (~1,330 at the full rate; the work grows superlinearly with
// the rate).
#include <algorithm>
#include <memory>
#include <vector>

#include "apps/airline/airline.hpp"
#include "des.hpp"
#include "harness/scenario.hpp"
#include "lag_observer.hpp"
#include "shard/cluster.hpp"
#include "sim/rng.hpp"

namespace perfbench {
namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<50, 900, 300>;

constexpr std::size_t kNodes = 4;
constexpr double kTickSeconds = 0.05;
constexpr std::size_t kTicks = 600;  // 30 simulated seconds.
constexpr double kHorizon = kTickSeconds * static_cast<double>(kTicks + 2);
constexpr std::size_t kZipfKeys = 400;
constexpr std::uint64_t kBaseMilliPerTick = 12500;  // E25: 25000
constexpr std::size_t kDiurnalPeriod = 400;
constexpr std::size_t kFlashStart = 240, kFlashEnd = 300;
constexpr std::uint64_t kFlashFactor = 3;

std::uint64_t diurnal_milli(std::size_t tick) {
  const std::size_t phase = tick % kDiurnalPeriod;
  return phase < kDiurnalPeriod / 2
             ? 500 + 5 * phase
             : 1500 - 5 * (phase - kDiurnalPeriod / 2);
}

std::size_t tick_submissions(std::size_t tick, std::uint64_t* acc_milli) {
  std::uint64_t milli = kBaseMilliPerTick * diurnal_milli(tick) / 1000;
  if (tick >= kFlashStart && tick < kFlashEnd) milli *= kFlashFactor;
  *acc_milli += milli;
  const std::size_t n = static_cast<std::size_t>(*acc_milli / 1000);
  *acc_milli %= 1000;
  return n;
}

struct Submission {
  core::NodeId node;
  al::Request request;
};
using Schedule = std::vector<std::vector<Submission>>;

Schedule build_schedule(std::uint64_t seed, std::size_t* total) {
  sim::Rng rng(seed);
  std::vector<double> cdf(kZipfKeys);
  double sum = 0.0;
  for (std::size_t i = 0; i < kZipfKeys; ++i) {
    sum += 1.0 / static_cast<double>(i + 1);
    cdf[i] = sum;
  }
  Schedule schedule(kTicks);
  std::uint64_t acc = 0;
  std::size_t rr = 0;
  *total = 0;
  for (std::size_t k = 0; k < kTicks; ++k) {
    const std::size_t n = tick_submissions(k, &acc);
    schedule[k].reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double u = rng.uniform(0.0, cdf.back());
      const auto p = static_cast<al::Person>(
          1 + (std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()));
      const al::Request req = rng.bernoulli(0.3) ? al::Request::cancel(p)
                                                 : al::Request::request(p);
      schedule[k].push_back({static_cast<core::NodeId>(rr++ % kNodes), req});
    }
    *total += n;
  }
  return schedule;
}

shard::ClusterConfig config(std::uint64_t seed, bool traced) {
  harness::Scenario sc = harness::wan(kNodes);
  sc.compaction = true;
  sc.checkpoint_interval = 32;
  sc.max_checkpoints = 8;
  sc.trace.enabled = traced;
  shard::ClusterConfig cfg = sc.cluster_config<Air>(seed ^ 0x5a7);
  cfg.broadcast.max_batch = 8;
  return cfg;
}

/// Everything a rep needs before its run phase. The cluster is declared
/// last so it is destroyed before the sink and observer it points to.
struct Armed {
  Schedule schedule;
  std::size_t total = 0;
  std::unique_ptr<LayerSink> sink;
  std::unique_ptr<LagObserver<Air>> lag;
  std::unique_ptr<shard::Cluster<Air>> cluster;
  std::vector<double> submit_us;
  double schedule_s = 0.0;
};

std::unique_ptr<Armed> arm(std::uint64_t seed, bool traced) {
  auto a = std::make_unique<Armed>();
  const Clock::time_point t0 = Clock::now();
  a->schedule = build_schedule(seed, &a->total);
  a->schedule_s = seconds_between(t0, Clock::now());
  a->cluster = std::make_unique<shard::Cluster<Air>>(config(seed, traced));
  shard::Cluster<Air>& c = *a->cluster;
  if (traced) {
    a->sink = std::make_unique<LayerSink>(1);
    c.tracer()->add_sink(a->sink.get());
    a->submit_us.reserve(a->total);
  }
  // End of load: the last tick's burst is "before" it.
  const double end_of_load = kTickSeconds * static_cast<double>(kTicks) + 1e-6;
  a->lag = std::make_unique<LagObserver<Air>>(
      kNodes, std::vector<double>{end_of_load}, nullptr, a->sink.get());
  c.set_stream_observer(a->lag.get());
  Armed* raw = a.get();
  for (std::size_t k = 0; k < kTicks; ++k) {
    if (a->schedule[k].empty()) continue;
    c.scheduler().schedule_at(
        kTickSeconds * static_cast<double>(k + 1), [raw, k] {
          shard::Cluster<Air>& cl = *raw->cluster;
          for (const Submission& s : raw->schedule[k]) {
            if (raw->sink) {
              const std::int64_t b = raw->sink->begin(0, Layer::kShard);
              cl.node(s.node).try_submit(s.request, cl.scheduler().now());
              raw->submit_us.push_back(
                  static_cast<double>(raw->sink->end(0, b)) / 1e3);
            } else {
              cl.node(s.node).try_submit(s.request, cl.scheduler().now());
            }
          }
        });
  }
  return a;
}

DesRep rep(std::uint64_t seed, bool traced) {
  DesRep r;
  Result& res = r.checks;
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Armed> a = arm(seed, traced);
  const Clock::time_point t1 = Clock::now();
  shard::Cluster<Air>& c = *a->cluster;
  c.run_until(kHorizon);
  c.settle();
  const Clock::time_point t2 = Clock::now();
  r.attempted = a->total;
  r.admitted = a->total - c.aggregate_engine_stats().rejected_submissions;
  linear_checks<Air>(c, r.admitted, r.checks);
  const Clock::time_point t3 = Clock::now();
  r.schedule_s = a->schedule_s;
  r.setup_s = seconds_between(t0, t1);
  r.run_s = seconds_between(t1, t2);
  r.verify_s = seconds_between(t2, t3);
  r.verified = true;
  res.check(a->lag->lags_ms(&r.lag_ms), "every update reached every replica");
  res.check(a->lag->recovery_ms(&r.recovery_ms),
            "every recovery event completed");
  r.counters = c.metrics().counters();
  if (traced) {
    r.trace = summarize_trace(a->sink->totals(), a->submit_us, r.run_s, 1.0);
  }
  return r;
}

}  // namespace

Result run_wan_flash(const Args& args) {
  const DesFold reps = run_des_reps(
      args, 2, 1,
      [](std::uint64_t sub, bool traced, bool) { return rep(sub, traced); });
  std::vector<std::string> notes;
  Result res = summarize_des(args, reps, &notes);
  print_result(res, notes);
  return res;
}

}  // namespace perfbench
