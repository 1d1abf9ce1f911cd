// Shared plumbing of the repository benchmark: command-line arguments, the
// result line, order statistics, and the two metric sets every workload
// prints (end to end with --trace 0, per layer with --trace 1).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one process prints as its last line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Record one output check; a failed check is reported on stderr and
  /// makes the whole result incorrect.
  void check(bool ok, const std::string& what);
};

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& v);
/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// The end-to-end metric set. Every workload fills every field; the field
/// comments give the meaning that differs between the simulated (DES) and
/// the threaded workload.
struct EndToEnd {
  double setup_s = 0.0;      ///< median set-up (schedule + cluster build)
  double tx_per_s = 0.0;     ///< transactions completed per wall second
  double lag_p50_ms = 0.0;   ///< originate -> delivered at every replica;
  double lag_p90_ms = 0.0;   ///< simulated ms (DES), real ms (threaded)
  std::size_t lag_samples = 0;
  double verify_s = 0.0;     ///< mean post-run verification wall time
  double peak_rss_mb = 0.0;
  double completed_frac = 0.0;  ///< 1 - failed / attempted
};

/// The per-layer metric set (see perfbench/README.md for definitions).
/// Fields a workload does not exercise stay 0.
struct PerLayer {
  // shard: merge engine counters and traced spans.
  double redo_per_mid_insert = 0.0;
  double checkpoint_keep_frac = 0.0;
  double mid_insert_frac = 0.0;
  double insert_depth_mean = 0.0;
  double retained_checkpoints = 0.0;
  double retained_entries = 0.0;
  double merge_s = 0.0;
  double undo_redo_s = 0.0;
  double mid_insert_us_p50 = 0.0;
  double mid_insert_us_p99 = 0.0;
  double submit_us_p50 = 0.0;
  double submit_us_p99 = 0.0;
  // net: ReliableBroadcast and the packets it puts on the network.
  double syncs_per_tx = 0.0;
  double wires_per_batch = 0.0;
  double packets_per_tx = 0.0;
  double dup_frac = 0.0;
  double repairs_per_tx = 0.0;
  double broadcast_self_s = 0.0;
  double recovery_ms = 0.0;  ///< max over heal/restart/end-of-load events
  // sim: scheduler dispatch.
  double dispatches_per_tx = 0.0;
  double dispatch_self_s = 0.0;
  // runtime: message bus and worker tasks.
  double bus_us_p50 = 0.0;
  double bus_us_p99 = 0.0;
  double msgs_per_tx = 0.0;
  double tasks_per_tx = 0.0;
  // analysis: post-hoc oracles and the streaming checker.
  double execution_build_s = 0.0;
  double prefix_check_s = 0.0;
  double other_checks_s = 0.0;
  double prefix_entries_per_tx = 0.0;
  double stream_us_per_delivery = 0.0;
  // harness: input generation and the client's view of the tail.
  double schedule_s = 0.0;
  double lag_p99_ms = 0.0;
  // obs.
  double trace_overhead_frac = 0.0;
  double coverage_frac = 0.0;
};

void add_end_to_end(Result& r, const EndToEnd& e);
void add_per_layer(Result& r, const PerLayer& p);

/// Print the human-readable lines and then the JSON result line (last).
void print_result(const Result& r, const std::vector<std::string>& notes);

Result run_wan_flash(const Args& args);
Result run_partition_heal(const Args& args);
Result run_threaded_closed(const Args& args);

}  // namespace perfbench
