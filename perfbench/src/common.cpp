#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void add_end_to_end(Result& r, const EndToEnd& e) {
  r.metrics.push_back({"setup_s", e.setup_s, "s"});
  r.metrics.push_back({"tx_per_s", e.tx_per_s, "1/s"});
  r.metrics.push_back({"lag_p50_ms", e.lag_p50_ms, "ms"});
  r.metrics.push_back({"lag_p90_ms", e.lag_p90_ms, "ms"});
  r.metrics.push_back({"verify_s", e.verify_s, "s"});
  r.metrics.push_back({"peak_rss_mb", e.peak_rss_mb, "MiB"});
  r.metrics.push_back({"completed_frac", e.completed_frac, "frac"});
}

void add_per_layer(Result& r, const PerLayer& p) {
  const auto add = [&r](const char* name, double v, const char* unit) {
    r.metrics.push_back({name, v, unit});
  };
  add("shard.redo_per_mid_insert", p.redo_per_mid_insert, "count");
  add("shard.checkpoint_keep_frac", p.checkpoint_keep_frac, "frac");
  add("shard.mid_insert_frac", p.mid_insert_frac, "frac");
  add("shard.insert_depth_mean", p.insert_depth_mean, "count");
  add("shard.retained_checkpoints", p.retained_checkpoints, "count");
  add("shard.retained_entries", p.retained_entries, "count");
  add("shard.merge_s", p.merge_s, "s");
  add("shard.undo_redo_s", p.undo_redo_s, "s");
  add("shard.mid_insert_us_p50", p.mid_insert_us_p50, "us");
  add("shard.mid_insert_us_p99", p.mid_insert_us_p99, "us");
  add("shard.submit_us_p50", p.submit_us_p50, "us");
  add("shard.submit_us_p99", p.submit_us_p99, "us");
  add("broadcast.syncs_per_tx", p.syncs_per_tx, "count");
  add("broadcast.wires_per_batch", p.wires_per_batch, "count");
  add("net.packets_per_tx", p.packets_per_tx, "count");
  add("broadcast.dup_frac", p.dup_frac, "frac");
  add("broadcast.repairs_per_tx", p.repairs_per_tx, "count");
  add("broadcast.self_s", p.broadcast_self_s, "s");
  add("net.recovery_ms", p.recovery_ms, "ms");
  add("sim.dispatches_per_tx", p.dispatches_per_tx, "count");
  add("sim.dispatch_self_s", p.dispatch_self_s, "s");
  add("runtime.bus_us_p50", p.bus_us_p50, "us");
  add("runtime.bus_us_p99", p.bus_us_p99, "us");
  add("runtime.msgs_per_tx", p.msgs_per_tx, "count");
  add("runtime.tasks_per_tx", p.tasks_per_tx, "count");
  add("analysis.execution_build_s", p.execution_build_s, "s");
  add("analysis.prefix_check_s", p.prefix_check_s, "s");
  add("analysis.other_checks_s", p.other_checks_s, "s");
  add("analysis.prefix_entries_per_tx", p.prefix_entries_per_tx, "count");
  add("analysis.stream_us_per_delivery", p.stream_us_per_delivery, "us");
  add("harness.schedule_s", p.schedule_s, "s");
  add("harness.lag_p99_ms", p.lag_p99_ms, "ms");
  add("obs.trace_overhead_frac", p.trace_overhead_frac, "frac");
  add("obs.coverage_frac", p.coverage_frac, "frac");
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

void print_result(const Result& r, const std::vector<std::string>& notes) {
  for (const std::string& line : notes) std::printf("# %s\n", line.c_str());
  bool finite = true;
  for (const Metric& m : r.metrics) finite = finite && std::isfinite(m.value);
  std::string out = "{\"correct\": ";
  out += (r.correct && finite) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
