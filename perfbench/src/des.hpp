// Helpers shared by the workloads: the linear-time output checks, the
// translation of engine / broadcast counters and LayerSink totals into the
// per-layer metric set, and the rep runner and result line of the two
// simulated (DES) workloads.
#pragma once

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/timestamp.hpp"
#include "layer_sink.hpp"

namespace perfbench {

using Counters = std::map<std::string, std::uint64_t>;

/// Output checks that cost O(n log n) in the number of transactions, so
/// they run on every workload at full length: replicas converged to one
/// state, that state equals a serial replay of every originated update in
/// timestamp order, and the decisions run equal the admitted submissions.
/// Works on shard::Cluster and, after shutdown, runtime::RealtimeCluster.
template <class App, class ClusterT>
void linear_checks(const ClusterT& c, std::uint64_t admitted, Result& r) {
  r.check(c.converged(), "replicas converged to identical states");
  std::vector<std::pair<core::Timestamp, const typename App::Update*>> all;
  all.reserve(c.total_originated());
  std::uint64_t decisions = 0;
  for (std::size_t n = 0; n < c.num_nodes(); ++n) {
    const auto& node = c.node(static_cast<core::NodeId>(n));
    decisions += node.engine_stats().decisions_run;
    for (const auto& rec : node.originated()) all.emplace_back(rec.ts, &rec.update);
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  typename App::State s = App::initial();
  for (const auto& [ts, u] : all) App::apply(*u, s);
  r.check(s == c.node(0).state(),
          "final state equals the serial replay in timestamp order");
  r.check(decisions == admitted && all.size() == admitted,
          "decisions run (" + std::to_string(decisions) +
              ") equal admitted submissions (" + std::to_string(admitted) +
              ")");
}

/// What one traced rep contributes to the per-layer metrics, reduced when
/// the rep ends so no per-event sample outlives it.
struct TraceSummary {
  double merge_s = 0.0, undo_redo_s = 0.0;
  double mid_insert_us_p50 = 0.0, mid_insert_us_p99 = 0.0;
  double submit_us_p50 = 0.0, submit_us_p99 = 0.0;
  double bus_us_p50 = 0.0, bus_us_p99 = 0.0;
  double net_self_s = 0.0, sim_self_s = 0.0;
  double coverage_frac = 0.0;
  double stream_us_per_delivery = 0.0;
  double dispatches = 0.0, net_sends = 0.0;
  std::size_t mid_inserts = 0, submits = 0, bus_transits = 0;
};

/// `workers`: the number of threads whose busy time the coverage divides
/// the run's wall time among.
inline TraceSummary summarize_trace(const LayerSink::Totals& t,
                                    const std::vector<double>& submit_us,
                                    double run_s, double workers) {
  TraceSummary s;
  s.merge_s = t.merge_s;
  s.undo_redo_s = t.undo_redo_s;
  s.mid_insert_us_p50 = quantile(t.mid_insert_us, 0.50);
  s.mid_insert_us_p99 = quantile(t.mid_insert_us, 0.99);
  s.submit_us_p50 = quantile(submit_us, 0.50);
  s.submit_us_p99 = quantile(submit_us, 0.99);
  s.bus_us_p50 = quantile(t.bus_us, 0.50);
  s.bus_us_p99 = quantile(t.bus_us, 0.99);
  s.net_self_s = t.layer_s[static_cast<std::size_t>(Layer::kNet)];
  s.sim_self_s = t.layer_s[static_cast<std::size_t>(Layer::kSim)];
  double layers = t.obs_s;
  for (const double l : t.layer_s) layers += l;
  s.coverage_frac = run_s > 0.0 ? layers / (run_s * workers) : 0.0;
  s.dispatches = static_cast<double>(t.dispatches);
  s.net_sends = static_cast<double>(t.net_sends);
  s.mid_inserts = t.mid_insert_us.size();
  s.submits = submit_us.size();
  s.bus_transits = t.bus_us.size();
  return s;
}

/// One repetition of a simulated workload.
struct DesRep {
  std::size_t sub = 0;  ///< sub-seed index within the run
  bool traced = false;
  Result checks;        ///< this rep's output checks
  double schedule_s = 0.0;  ///< input generation (part of set-up)
  double setup_s = 0.0;     ///< schedule + cluster construction + arming
  double run_s = 0.0;       ///< run_until + settle
  double verify_s = 0.0;
  bool verified = false;  ///< verify_s (and the oracle parts) were measured
  std::uint64_t attempted = 0;
  std::uint64_t admitted = 0;
  std::vector<double> lag_ms;
  double recovery_ms = 0.0;
  Counters counters;
  // Post-hoc oracle parts (partition_heal only).
  double execution_build_s = 0.0;
  double prefix_check_s = 0.0;
  double other_checks_s = 0.0;
  double prefix_entries_per_tx = 0.0;
  TraceSummary trace;  ///< traced reps only
};

inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

inline std::uint64_t counter(const Counters& c, const char* name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

/// Merge-engine, broadcast and retention counters -> per-layer ratios.
/// `tx` is the number of transactions the counters cover; `packets` the
/// network packets sent.
inline void fill_counter_metrics(PerLayer& p, const Counters& c, double tx,
                                 double packets) {
  const double mid = static_cast<double>(counter(c, "engine.mid_inserts"));
  const double tail = static_cast<double>(counter(c, "engine.tail_appends"));
  const double redone =
      static_cast<double>(counter(c, "engine.redone_updates"));
  const double undone =
      static_cast<double>(counter(c, "engine.undone_updates"));
  const double taken =
      static_cast<double>(counter(c, "engine.checkpoints_taken"));
  const double thinned =
      static_cast<double>(counter(c, "engine.checkpoints_thinned"));
  // redone_updates also counts the one apply of every tail append.
  p.redo_per_mid_insert = ratio(redone - tail, mid);
  p.checkpoint_keep_frac = taken > 0.0 ? 1.0 - thinned / taken : 0.0;
  p.mid_insert_frac = ratio(mid, mid + tail);
  p.insert_depth_mean = ratio(undone, mid);
  p.retained_checkpoints =
      static_cast<double>(counter(c, "retained.checkpoints"));
  p.retained_entries = static_cast<double>(counter(c, "retained.log_entries"));
  p.syncs_per_tx =
      ratio(static_cast<double>(counter(c, "broadcast.outbox_commits")), tx);
  p.wires_per_batch = ratio(
      static_cast<double>(counter(c, "broadcast.flood_batched_wires")),
      static_cast<double>(counter(c, "broadcast.flood_batches")));
  p.packets_per_tx = ratio(packets, tx);
  const double dups =
      static_cast<double>(counter(c, "broadcast.duplicates_dropped"));
  p.dup_frac =
      ratio(dups, dups + static_cast<double>(counter(c, "broadcast.delivered")));
  p.repairs_per_tx = ratio(
      static_cast<double>(counter(c, "broadcast.anti_entropy_repairs")), tx);
}

/// Traced reps -> per-layer times: medians over the reps. `tx` is the
/// number of transactions of one rep.
/// `overhead` holds traced / untraced - 1 for pairs of runs on one input.
inline void fill_trace_metrics(PerLayer& p,
                               const std::vector<TraceSummary>& traced,
                               const std::vector<double>& overhead,
                               double tx) {
  const auto med = [&traced](double TraceSummary::*field) {
    std::vector<double> v;
    for (const TraceSummary& t : traced) v.push_back(t.*field);
    return median(v);
  };
  p.merge_s = med(&TraceSummary::merge_s);
  p.undo_redo_s = med(&TraceSummary::undo_redo_s);
  p.mid_insert_us_p50 = med(&TraceSummary::mid_insert_us_p50);
  p.mid_insert_us_p99 = med(&TraceSummary::mid_insert_us_p99);
  p.submit_us_p50 = med(&TraceSummary::submit_us_p50);
  p.submit_us_p99 = med(&TraceSummary::submit_us_p99);
  p.broadcast_self_s = med(&TraceSummary::net_self_s);
  p.dispatch_self_s = med(&TraceSummary::sim_self_s);
  p.bus_us_p50 = med(&TraceSummary::bus_us_p50);
  p.bus_us_p99 = med(&TraceSummary::bus_us_p99);
  p.stream_us_per_delivery = med(&TraceSummary::stream_us_per_delivery);
  p.coverage_frac = med(&TraceSummary::coverage_frac);
  p.dispatches_per_tx = ratio(med(&TraceSummary::dispatches), tx);
  p.tasks_per_tx = p.dispatches_per_tx;
  p.msgs_per_tx = ratio(med(&TraceSummary::net_sends), tx);
  p.trace_overhead_frac = median(overhead);
}

inline std::string sample_note(const std::vector<TraceSummary>& traced) {
  const TraceSummary& t = traced.front();
  return "span percentiles per traced run over " +
         std::to_string(t.mid_inserts) + " mid-inserts, " +
         std::to_string(t.submits) + " submits, " +
         std::to_string(t.bus_transits) + " bus transits; medians over " +
         std::to_string(traced.size()) + " traced runs";
}

/// Seed of the run's j-th sub-run (splitmix64 of the pair): every rep of a
/// run draws its own inputs and network, all from the run's seed.
inline std::uint64_t sub_seed(std::uint64_t seed, std::size_t j) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + j + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Moves the calling thread round-robin over the CPUs of its starting
/// affinity mask, one time slice each, and restores the mask when
/// destroyed. On a shared host the speed of one vCPU changes from minute to
/// minute with the other tenants' load (partition_heal measured 28k to 45k
/// tx/s within one minute, depending on the vCPU), and the kernel keeps a
/// busy thread on one vCPU, so a run would measure whichever it landed on.
/// Spread over all of them, a run measures the host. Slices are long
/// against a rep's cache warm-up and short against the run, and a rep is
/// moved only between reps. If the mask cannot be read or set, reps run
/// unpinned.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&initial_);
    if (sched_getaffinity(0, sizeof(initial_), &initial_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &initial_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof(initial_), &initial_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Called between reps, `elapsed_s` into the run.
  void pin(double elapsed_s) {
    const auto slice = static_cast<std::size_t>(elapsed_s / kSliceSeconds);
    if (cpus_.size() < 2 || slice == slice_) return;
    slice_ = slice;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[slice % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  static constexpr double kSliceSeconds = 0.25;
  cpu_set_t initial_;
  std::vector<int> cpus_;
  std::size_t slice_ = ~std::size_t{0};
};

/// A simulated workload's reps, folded as they finish so memory stays the
/// same however many reps fit in the time budget.
struct DesFold {
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> setup, sched, recovery;
  double run_tx = 0.0, run_s = 0.0;  ///< summed over untraced reps
  std::size_t untraced = 0;
  std::vector<double> overhead;  ///< traced / untraced - 1, same sub-seed
  std::vector<double> verify, execution_build, prefix_check, other_checks,
      prefix_entries;
  std::vector<double> lags;  ///< pooled over the first kLagSubs sub-seeds
  std::size_t lag_subs = 0;
  std::size_t subs = 0;   ///< distinct sub-seeds run
  double tx = 0.0;        ///< admitted transactions of one sub-seed
  Counters sum;           ///< counters summed over distinct sub-seeds
  std::vector<TraceSummary> traced;
  std::size_t repeats = 0;  ///< second runs compared against the first
  double peak_rss_mb = 0.0;
};

inline constexpr std::size_t kLagSubs = 256;

/// Runs a simulated workload's reps one at a time until `args.seconds` is
/// spent (at least `min_reps`, and no rep is started that the mean rep
/// time says would end past the budget). Reps use distinct sub-seeds,
/// except that some sub-seeds run twice -- with --trace 0 the first one,
/// with --trace 1 every one (untraced, then traced) -- and every counter,
/// lag and recovery figure of the second run must equal the first's
/// (tracing must never perturb the protocol).
/// Reps move over all CPUs as the run goes on (see CpuRotation).
/// `rep_fn(sub_seed, traced, verify)` runs one rep; `verify` is set on the
/// first untraced run of every `verify_every`-th sub-seed.
template <class RepFn>
DesFold run_des_reps(const Args& args, std::size_t min_reps,
                     std::size_t verify_every, RepFn&& rep_fn) {
  struct Job {
    std::size_t sub;
    bool traced;
    bool verify;
  };
  const auto job = [&](std::size_t k) {
    if (args.trace) {
      return Job{k / 2, k % 2 == 1, k % 2 == 0 && (k / 2) % verify_every == 0};
    }
    const std::size_t sub = k == 0 ? 0 : k - 1;
    return Job{sub, false, k != 1 && sub % verify_every == 0};
  };
  DesFold f;
  std::map<std::size_t, DesRep> awaiting;  // first runs awaiting a repeat
  const auto fold = [&](DesRep&& r) {
    f.correct = f.correct && r.checks.correct;
    f.attempted += r.attempted;
    f.failed += r.attempted - r.admitted;
    f.setup.push_back(r.setup_s);
    f.sched.push_back(r.schedule_s);
    if (r.verified) {
      f.verify.push_back(r.verify_s);
      f.execution_build.push_back(r.execution_build_s);
      f.prefix_check.push_back(r.prefix_check_s);
      f.other_checks.push_back(r.other_checks_s);
      f.prefix_entries.push_back(r.prefix_entries_per_tx);
    }
    if (r.traced) {
      f.traced.push_back(r.trace);
    } else {
      f.run_tx += static_cast<double>(r.admitted);
      f.run_s += r.run_s;
      ++f.untraced;
    }
    const auto it = awaiting.find(r.sub);
    if (it != awaiting.end()) {
      const DesRep& first = it->second;
      bool same = r.lag_ms == first.lag_ms && r.recovery_ms == first.recovery_ms;
      for (const auto& [name, v] : first.counters) {
        same = same && counter(r.counters, name.c_str()) == v;
      }
      if (!same) {
        f.correct = false;
        std::fprintf(stderr, "perfbench: check failed: counters, lags and "
                             "recovery repeat across runs of one seed\n");
      }
      if (r.traced && !first.traced) {
        f.overhead.push_back(r.run_s / first.run_s - 1.0);
      }
      ++f.repeats;
      awaiting.erase(it);
      return;
    }
    ++f.subs;
    f.tx = static_cast<double>(r.admitted);
    f.recovery.push_back(r.recovery_ms);
    for (const auto& [name, v] : r.counters) f.sum[name] += v;
    if (f.lag_subs < kLagSubs) {
      f.lags.insert(f.lags.end(), r.lag_ms.begin(), r.lag_ms.end());
      ++f.lag_subs;
    }
    if (args.trace || r.sub == 0) awaiting.emplace(r.sub, std::move(r));
  };
  CpuRotation cpus;
  const Clock::time_point start = Clock::now();
  for (std::size_t k = 0;; ++k) {
    // A traced rep stays on its untraced twin's CPU, so their ratio is the
    // tracing overhead.
    if (!args.trace || k % 2 == 0) {
      cpus.pin(seconds_between(start, Clock::now()));
    }
    const Job j = job(k);
    DesRep r = rep_fn(sub_seed(args.seed, j.sub), j.traced, j.verify);
    r.sub = j.sub;
    r.traced = j.traced;
    fold(std::move(r));
    const double spent = seconds_between(start, Clock::now());
    const double per_rep = spent / static_cast<double>(k + 1);
    if (k + 1 >= min_reps && spent + per_rep > args.seconds) break;
  }
  f.peak_rss_mb = peak_rss_mb();
  return f;
}

/// The result line of a simulated workload: medians over reps (set-up
/// samples are the reps' own, so they are spread over the whole run), lag
/// percentiles pooled over sub-seeds, and the process's peak memory.
inline Result summarize_des(const Args& args, const DesFold& f,
                            std::vector<std::string>* notes) {
  Result res;
  res.correct = f.correct;
  res.attempted = f.attempted;
  res.failed = f.failed;
  res.check(f.repeats > 0, "some seed ran twice");
  if (!args.trace) {
    EndToEnd e;
    e.setup_s = median(f.setup);
    e.tx_per_s = ratio(f.run_tx, f.run_s);
    e.lag_p50_ms = quantile(f.lags, 0.50);
    e.lag_p90_ms = quantile(f.lags, 0.90);
    e.lag_samples = f.lags.size();
    e.verify_s = mean(f.verify);
    e.peak_rss_mb = f.peak_rss_mb;
    e.completed_frac = 1.0 - ratio(static_cast<double>(f.failed),
                                   static_cast<double>(f.attempted));
    add_end_to_end(res, e);
    notes->push_back("lag percentiles over " + std::to_string(f.lags.size()) +
                     " updates of " + std::to_string(f.lag_subs) +
                     " sub-seeds; " + std::to_string(f.untraced) +
                     " runs of " + std::to_string(f.subs) + " sub-seeds, " +
                     std::to_string(f.verify.size()) + " verifications");
  } else {
    PerLayer p;
    const double subs = static_cast<double>(f.subs);
    fill_counter_metrics(p, f.sum, f.tx * subs,
                         static_cast<double>(counter(f.sum, "net.sent")));
    p.retained_checkpoints /= subs;
    p.retained_entries /= subs;
    fill_trace_metrics(p, f.traced, f.overhead, f.tx);
    p.execution_build_s = median(f.execution_build);
    p.prefix_check_s = median(f.prefix_check);
    p.other_checks_s = median(f.other_checks);
    p.prefix_entries_per_tx = median(f.prefix_entries);
    p.schedule_s = median(f.sched);
    p.lag_p99_ms = quantile(f.lags, 0.99);
    p.recovery_ms = median(f.recovery);
    add_per_layer(res, p);
    notes->push_back(sample_note(f.traced));
  }
  return res;
}

}  // namespace perfbench
