// threaded_closed: a closed loop against runtime::RealtimeCluster.
//
// Three replicas, one worker thread each, plus this driver thread (4
// threads: the size of the box the baseline was taken on). The bus injects
// no delay and drops nothing, so latency is processor time only (WAN delay
// is covered in simulated time by wan_flash). The driver keeps kWindow
// submissions outstanding per node; a submission completes when its update
// has been delivered at every replica, which the client's completion sink
// sees as the last of its broadcast.deliver events. The sink is part of
// the client, so it is attached in both the untraced and the traced run.
//
// Sink attach point: RealtimeCluster starts its workers in its
// constructor, so a sink added afterwards would race the workers' reads of
// the shard's sink list. The driver first parks every worker inside a task
// of its own (each worker blocks on a shared future), attaches the sinks
// while no worker runs, then releases them; the future's set_value /
// get pair orders the attach before every later record. The end-of-run
// check that the sink counted exactly the net.send events the tracer
// counted confirms that nothing was recorded before the attach.
//
// Timing never uses await_convergence (it sleep-polls in 5 ms steps):
// submit and completion instants are stamped with steady_clock by the
// driver and the completion sink.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <future>
#include <latch>
#include <memory>
#include <mutex>
#include <vector>

#include "apps/airline/airline.hpp"
#include "des.hpp"
#include "obs/metrics.hpp"
#include "runtime/realtime_cluster.hpp"
#include "sim/rng.hpp"

namespace perfbench {
namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<50, 900, 300>;
using RC = runtime::RealtimeCluster<Air>;

constexpr std::size_t kNodes = 3;
/// Outstanding submissions per node: the smallest window at which
/// throughput stopped rising. Measured on 4 vCPUs (10 s per window, tx/s
/// and median lag): W=1 126k 0.017 ms, 2 203k 0.022 ms, 4 211k 0.047 ms,
/// 8 207k 0.10 ms, 16 197k 0.22 ms, 32 164k 0.52 ms. Past the knee the
/// lag is queueing (Little's law: 3W / throughput), not processing.
constexpr std::size_t kWindow = 4;
/// Submissions per node per rep: ~0.3 s at ~200k tx/s, so a run reports
/// the median of ~100 reps. RealtimeCluster never compacts its logs, so a
/// rep's memory grows with its length (~80 MiB at 60k transactions).
constexpr std::size_t kPerNode = 20000;
constexpr std::uint32_t kPersons = 400;
constexpr double kStallSeconds = 20.0;      ///< no completion this long: fail

/// Watches broadcast.deliver for the client and counts message fates.
/// Thread-safe: every worker records into it. Delivery counts are atomics
/// (an update's deliveries happen on different workers); fate counts are
/// per node, each written only by that node's worker.
class CompletionSink final : public obs::Sink {
 public:
  CompletionSink() {
    for (std::size_t i = 0; i < kNodes; ++i) {
      counts_[i] = std::make_unique<std::atomic<std::uint8_t>[]>(kPerNode);
      done_ns_[i].assign(kPerNode, 0);
    }
  }

  void on_event(const obs::Event& e) override {
    switch (e.type) {
      case obs::EventType::kBroadcastDeliver: {
        const std::size_t origin = e.a;
        const std::uint64_t seq = e.b;
        if (origin >= kNodes || seq == 0 || seq > kPerNode) return;
        const std::uint8_t seen =
            counts_[origin][seq - 1].fetch_add(1, std::memory_order_acq_rel);
        if (seen + 1 == kNodes) {
          done_ns_[origin][seq - 1] = LayerSink::now_ns();
          {
            std::lock_guard<std::mutex> lk(mu_);
            ready_.push_back(origin);
          }
          cv_.notify_one();
        }
        break;
      }
      case obs::EventType::kNetSend:
        ++fates_[std::min<std::size_t>(e.node, kNodes - 1)].sends;
        break;
      case obs::EventType::kNetDeliver:
      case obs::EventType::kNetDropPartition:
      case obs::EventType::kNetDropRandom:
      case obs::EventType::kNetDropCrashed:
        if (e.b != 0) ++fates_[std::min<std::size_t>(e.node, kNodes - 1)].terminal;
        break;
      default:
        break;
    }
  }

  /// Wait for completions; returns the origins completed since the last
  /// call, or an empty list after `timeout_s` without one.
  std::vector<std::size_t> wait(double timeout_s) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_for(lk, std::chrono::duration<double>(timeout_s),
                 [this] { return !ready_.empty(); });
    std::vector<std::size_t> out;
    out.swap(ready_);
    return out;
  }

  std::int64_t done_ns(std::size_t origin, std::size_t k) const {
    return done_ns_[origin][k];
  }
  std::uint64_t sends() const {
    std::uint64_t n = 0;
    for (const Fates& f : fates_) n += f.sends;
    return n;
  }
  std::uint64_t terminal() const {
    std::uint64_t n = 0;
    for (const Fates& f : fates_) n += f.terminal;
    return n;
  }

 private:
  struct alignas(64) Fates {
    std::uint64_t sends = 0;
    std::uint64_t terminal = 0;
  };
  std::unique_ptr<std::atomic<std::uint8_t>[]> counts_[kNodes];
  std::vector<std::int64_t> done_ns_[kNodes];
  Fates fates_[kNodes];
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::size_t> ready_;
};

std::vector<al::Request> build_requests(std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<al::Request> out;
  out.reserve(kNodes * kPerNode);
  for (std::size_t i = 0; i < kNodes * kPerNode; ++i) {
    const auto p = static_cast<al::Person>(rng.uniform_int(1, kPersons));
    out.push_back(rng.bernoulli(0.3) ? al::Request::cancel(p)
                                     : al::Request::request(p));
  }
  return out;
}

runtime::RealtimeConfig config(std::uint64_t seed, bool traced) {
  runtime::RealtimeConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.seed = seed ^ 0x7c1;
  cfg.broadcast.anti_entropy_interval = 0.1;
  cfg.broadcast.anti_entropy_jitter = 0.02;
  cfg.bus.min_delay = 0.0;
  cfg.bus.max_delay = 0.0;
  cfg.bus.drop_probability = 0.0;
  cfg.trace_dispatch = traced;
  return cfg;
}

/// The cluster is declared last so it is destroyed (and its workers
/// joined) before the sinks it points to.
struct Armed {
  std::vector<al::Request> requests;  ///< node i's k-th: [k * kNodes + i]
  std::unique_ptr<CompletionSink> completion;
  std::unique_ptr<LayerSink> layers;
  std::unique_ptr<RC> cluster;
  double schedule_s = 0.0;
};

/// Park every worker, attach the sinks, release (see the file comment).
void attach_sinks(Armed& a) {
  RC& rc = *a.cluster;
  std::latch parked(static_cast<std::ptrdiff_t>(kNodes));
  std::promise<void> release;
  const std::shared_future<void> go = release.get_future().share();
  for (std::size_t i = 0; i < kNodes; ++i) {
    rc.backend().post(static_cast<runtime::NodeId>(i), [&parked, go] {
      parked.count_down();
      go.wait();
    });
  }
  parked.wait();
  rc.tracer().add_sink(a.completion.get());
  if (a.layers) rc.tracer().add_sink(a.layers.get());
  release.set_value();
}

std::unique_ptr<Armed> arm(std::uint64_t seed, bool traced) {
  auto a = std::make_unique<Armed>();
  const Clock::time_point t0 = Clock::now();
  a->requests = build_requests(seed);
  a->schedule_s = seconds_between(t0, Clock::now());
  a->completion = std::make_unique<CompletionSink>();
  if (traced) a->layers = std::make_unique<LayerSink>(kNodes);
  a->cluster = std::make_unique<RC>(config(seed, traced));
  attach_sinks(*a);
  return a;
}

struct ThreadRep {
  bool traced = false;
  double schedule_s = 0.0, setup_s = 0.0, run_s = 0.0, verify_s = 0.0;
  std::uint64_t attempted = 0, admitted = 0;
  std::uint64_t failed = 0;  ///< rejected or never completed
  double lag_p50_ms = 0.0, lag_p90_ms = 0.0, lag_p99_ms = 0.0;
  std::size_t lag_samples = 0;
  double drain_ms = 0.0;
  Counters counters;
  std::uint64_t sends = 0;
  TraceSummary trace;  ///< traced reps only
};

ThreadRep rep(std::uint64_t seed, bool traced, Result& res) {
  ThreadRep r;
  r.traced = traced;
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Armed> a = arm(seed, traced);
  const Clock::time_point t1 = Clock::now();
  RC& rc = *a->cluster;
  CompletionSink& comp = *a->completion;
  LayerSink* layers = a->layers.get();

  // Per node: submit instants and (traced) try_submit durations, the
  // latter written only on the node's worker and read after shutdown.
  std::vector<std::vector<std::int64_t>> submit_ns(
      kNodes, std::vector<std::int64_t>(kPerNode, 0));
  std::vector<std::vector<double>> submit_us(kNodes);
  for (auto& v : submit_us) v.reserve(traced ? kPerNode : 0);
  std::vector<std::size_t> submitted(kNodes, 0);
  std::int64_t last_submit = 0;
  const auto submit = [&](std::size_t node) {
    const std::size_t k = submitted[node]++;
    const al::Request req = a->requests[k * kNodes + node];
    last_submit = submit_ns[node][k] = LayerSink::now_ns();
    rc.backend().post(static_cast<runtime::NodeId>(node),
                      [&rc, &submit_us, layers, node, req] {
                        auto& n = rc.node(static_cast<core::NodeId>(node));
                        if (layers) {
                          const std::int64_t b = layers->begin(node, Layer::kShard);
                          n.try_submit(req, rc.backend().now());
                          submit_us[node].push_back(
                              static_cast<double>(layers->end(node, b)) / 1e3);
                        } else {
                          n.try_submit(req, rc.backend().now());
                        }
                      });
  };

  const std::size_t total = kNodes * kPerNode;
  const std::int64_t first_submit = LayerSink::now_ns();
  for (std::size_t node = 0; node < kNodes; ++node) {
    for (std::size_t w = 0; w < kWindow; ++w) submit(node);
  }
  std::size_t completed = 0;
  bool stalled = false;
  while (completed < total) {
    const std::vector<std::size_t> done = comp.wait(kStallSeconds);
    if (done.empty()) {
      stalled = true;
      break;
    }
    for (const std::size_t origin : done) {
      ++completed;
      if (submitted[origin] < kPerNode) submit(origin);
    }
  }
  rc.shutdown();
  res.check(!stalled, "every submission completed");

  std::int64_t last_done = first_submit;
  std::vector<double> lag_ms;
  lag_ms.reserve(kNodes * kPerNode);
  for (std::size_t node = 0; node < kNodes; ++node) {
    for (std::size_t k = 0; k < kPerNode; ++k) {
      const std::int64_t d = comp.done_ns(node, k);
      last_done = std::max(last_done, d);
      lag_ms.push_back(static_cast<double>(d - submit_ns[node][k]) / 1e6);
    }
  }
  r.lag_p50_ms = quantile(lag_ms, 0.50);
  r.lag_p90_ms = quantile(lag_ms, 0.90);
  r.lag_p99_ms = quantile(lag_ms, 0.99);
  r.lag_samples = lag_ms.size();
  r.schedule_s = a->schedule_s;
  r.setup_s = seconds_between(t0, t1);
  r.run_s = static_cast<double>(last_done - first_submit) / 1e9;
  r.drain_ms = static_cast<double>(last_done - last_submit) / 1e6;
  r.attempted = total;

  const Clock::time_point v0 = Clock::now();
  std::uint64_t rejected = 0;
  bool in_order = true;
  for (std::size_t node = 0; node < kNodes; ++node) {
    const auto& n = rc.node(static_cast<core::NodeId>(node));
    rejected += n.engine_stats().rejected_submissions;
    const auto& recs = n.originated();
    in_order = in_order && recs.size() == kPerNode;
    for (std::size_t k = 0; in_order && k < recs.size(); ++k) {
      in_order = recs[k].request == a->requests[k * kNodes + node];
    }
  }
  r.admitted = total - rejected;
  r.failed = rejected + (total - completed);
  res.check(in_order, "each node originated its submissions in order");
  linear_checks<Air>(rc, r.admitted, res);
  r.sends = comp.sends();
  res.check(r.sends == comp.terminal(),
            "every traced net.send has a terminal fate");
  const std::vector<std::uint64_t> types = rc.tracer().type_counts();
  res.check(
      r.sends == types[static_cast<std::size_t>(obs::EventType::kNetSend)],
      "the completion sink saw every net.send the tracer recorded");
  r.verify_s = seconds_between(v0, Clock::now());

  obs::MetricsRegistry reg;
  std::size_t entries = 0, checkpoints = 0;
  for (std::size_t node = 0; node < kNodes; ++node) {
    const auto& n = rc.node(static_cast<core::NodeId>(node));
    n.engine_stats().export_to(reg, "engine");
    n.broadcast_stats().export_to(reg);
    entries += n.entries_retained();
    checkpoints += n.checkpoints_retained();
  }
  reg.add_counter("retained.log_entries", entries);
  reg.add_counter("retained.checkpoints", checkpoints);
  r.counters = reg.counters();
  if (layers) {
    std::vector<double> all_submit_us;
    for (auto& v : submit_us) {
      all_submit_us.insert(all_submit_us.end(), v.begin(), v.end());
    }
    r.trace = summarize_trace(layers->totals(), all_submit_us, r.run_s,
                              static_cast<double>(kNodes));
  }
  return r;
}

/// Runs `rep(traced)` until `args.seconds` is spent: one untraced rep per
/// round with --trace 0; an untraced and then a traced rep per round with
/// --trace 1. Always at least `min_rounds` rounds, and no round is started
/// that the mean round time says would end past the budget.
template <class F>
void repeat_for(const Args& args, std::size_t min_rounds, F&& rep) {
  const Clock::time_point start = Clock::now();
  for (std::size_t round = 1;; ++round) {
    rep(false);
    if (args.trace) rep(true);
    const double spent = seconds_between(start, Clock::now());
    const double per_round = spent / static_cast<double>(round);
    if (round >= min_rounds && spent + per_round > args.seconds) break;
  }
}

}  // namespace

Result run_threaded_closed(const Args& args) {
  std::vector<double> setups;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<Armed> a = arm(args.seed, false);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  Result res;
  std::vector<ThreadRep> reps;
  repeat_for(args, 3, [&](bool traced) {
    reps.push_back(rep(args.seed, traced, res));
  });

  std::vector<double> tps, verify, lag50, lag90, lag99, drain, sched,
      overhead;
  std::vector<TraceSummary> traced;
  std::size_t lag_samples = 0;
  double tx = 0.0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const ThreadRep& r = reps[i];
    setups.push_back(r.setup_s);
    sched.push_back(r.schedule_s);
    res.attempted += r.attempted;
    res.failed += r.failed;
    if (r.traced) {
      traced.push_back(r.trace);
      // repeat_for runs each traced rep right after an untraced one.
      overhead.push_back(r.run_s / reps[i - 1].run_s - 1.0);
      continue;
    }
    tps.push_back(static_cast<double>(r.admitted) / r.run_s);
    verify.push_back(r.verify_s);
    lag50.push_back(r.lag_p50_ms);
    lag90.push_back(r.lag_p90_ms);
    lag99.push_back(r.lag_p99_ms);
    drain.push_back(r.drain_ms);
    lag_samples = r.lag_samples;
    tx = static_cast<double>(r.admitted);
  }
  std::vector<std::string> notes;
  if (!args.trace) {
    EndToEnd e;
    e.setup_s = median(setups);
    e.tx_per_s = median(tps);
    e.lag_p50_ms = median(lag50);
    e.lag_p90_ms = median(lag90);
    e.lag_samples = lag_samples;
    e.verify_s = median(verify);
    e.peak_rss_mb = peak_rss_mb();
    e.completed_frac = 1.0 - ratio(static_cast<double>(res.failed),
                                   static_cast<double>(res.attempted));
    add_end_to_end(res, e);
    notes.push_back("lag percentiles over " + std::to_string(lag_samples) +
                    " submissions per run; medians over " +
                    std::to_string(tps.size()) + " runs (" +
                    std::to_string(setups.size()) + " set-ups)");
  } else {
    PerLayer p;
    const ThreadRep& first = reps.front();
    fill_counter_metrics(p, first.counters, tx, static_cast<double>(first.sends));
    fill_trace_metrics(p, traced, overhead, tx);
    p.schedule_s = median(sched);
    p.lag_p99_ms = median(lag99);
    p.recovery_ms = median(drain);
    add_per_layer(res, p);
    notes.push_back(sample_note(traced));
  }
  print_result(res, notes);
  return res;
}

}  // namespace perfbench
