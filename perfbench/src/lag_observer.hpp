// A benchmark-side shard::StreamObserver for the simulated workloads.
//
// It forwards every callback to an optional inner observer (the streaming
// checker on partition_heal) and, from the same callbacks, measures
//   * replication lag: simulated time from an update's origination to its
//     first delivery at the last replica;
//   * recovery: for each event time T (a partition heal, a restart, the end
//     of the offered load), the simulated time until every replica holds
//     every update originated before T. An amnesia restart empties the
//     restarted replica's holdings, so it has to re-merge them.
// In a traced run it also times the inner observer's calls (the streaming
// checker's cost per delivery) and charges them to the analysis layer of
// the LayerSink; its own bookkeeping is charged to the bench bucket.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "layer_sink.hpp"
#include "shard/node.hpp"
#include "sim/crash.hpp"

namespace perfbench {

template <core::Application App>
class LagObserver final : public shard::StreamObserver<App> {
 public:
  LagObserver(std::size_t nodes, std::vector<double> event_times,
              shard::StreamObserver<App>* inner = nullptr,
              LayerSink* sink = nullptr)
      : nodes_(nodes),
        inner_(inner),
        sink_(sink),
        flat_(nodes),
        held_(nodes),
        events_(std::move(event_times)) {
    std::sort(events_.begin(), events_.end());
    cut_.assign(events_.size(), 0);
    recovered_at_.assign(events_.size(), -1.0);
    held_count_.assign(events_.size(), std::vector<std::size_t>(nodes, 0));
  }

  void on_originate(const shard::TxRecord<App>& rec, std::uint64_t origin_seq,
                    sim::Time now) override {
    timed(Layer::kBench, [&] {
      activate(now);
      auto& seqs = flat_[rec.origin];
      if (seqs.size() < origin_seq) seqs.resize(origin_seq, kNone);
      seqs[origin_seq - 1] = orig_.size();
      orig_.push_back(now);
      all_.push_back(-1.0);
      mask_.push_back(0);
      for (auto& h : held_) h.push_back(0);
    });
    if (inner_) inner([&] { inner_->on_originate(rec, origin_seq, now); });
  }

  void on_deliver(core::NodeId at, core::NodeId origin,
                  std::uint64_t origin_seq, const core::Timestamp& ts,
                  const typename App::State& state, sim::Time now) override {
    timed(Layer::kBench, [&] {
      activate(now);
      ++deliveries_;
      const std::size_t idx = flat_[origin][origin_seq - 1];
      const std::uint64_t bit = std::uint64_t{1} << at;
      if ((mask_[idx] & bit) == 0) {
        mask_[idx] |= bit;
        if (mask_[idx] == full_mask()) all_[idx] = now;
      }
      if (!held_[at][idx]) {
        held_[at][idx] = 1;
        for (std::size_t e = 0; e < active_; ++e) {
          if (idx >= cut_[e]) continue;
          ++held_count_[e][at];
          if (recovered_at_[e] < 0.0 && all_hold(e)) recovered_at_[e] = now;
        }
      }
    });
    if (inner_) {
      inner([&] {
        inner_->on_deliver(at, origin, origin_seq, ts, state, now);
      });
    }
  }

  void on_reserve(core::NodeId at, const core::Timestamp& ts) override {
    if (inner_) inner([&] { inner_->on_reserve(at, ts); });
  }

  void on_crash(core::NodeId at, sim::Time now) override {
    timed(Layer::kBench, [&] { activate(now); });
    if (inner_) inner([&] { inner_->on_crash(at, now); });
  }

  void on_restart(core::NodeId at, sim::RecoveryMode mode, std::size_t keep_n,
                  sim::Time now) override {
    timed(Layer::kBench, [&] {
      activate(now);
      if (mode == sim::RecoveryMode::kAmnesia) {
        std::fill(held_[at].begin(), held_[at].end(), 0);
        for (std::size_t e = 0; e < active_; ++e) held_count_[e][at] = 0;
      }
    });
    if (inner_) inner([&] { inner_->on_restart(at, mode, keep_n, now); });
  }

  void export_metrics(obs::MetricsRegistry& reg) const override {
    if (inner_) inner_->export_metrics(reg);
  }

  /// Per-update lag in simulated ms; false if some update never reached
  /// every replica.
  bool lags_ms(std::vector<double>* out) const {
    out->clear();
    for (std::size_t i = 0; i < orig_.size(); ++i) {
      if (all_[i] < 0.0) return false;
      out->push_back((all_[i] - orig_[i]) * 1e3);
    }
    return true;
  }
  /// Max over events of the recovery time in simulated ms; false if some
  /// event never recovered (or never fired).
  bool recovery_ms(double* out) const {
    *out = 0.0;
    for (std::size_t e = 0; e < events_.size(); ++e) {
      if (e >= active_ || recovered_at_[e] < 0.0) return false;
      *out = std::max(*out, (recovered_at_[e] - events_[e]) * 1e3);
    }
    return true;
  }
  std::uint64_t deliveries() const { return deliveries_; }
  /// Wall time spent inside the inner observer (traced runs only).
  double inner_s() const { return static_cast<double>(inner_ns_) / 1e9; }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  std::uint64_t full_mask() const {
    return nodes_ >= 64 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << nodes_) - 1;
  }

  bool all_hold(std::size_t e) const {
    for (std::size_t n = 0; n < nodes_; ++n) {
      if (held_count_[e][n] != cut_[e]) return false;
    }
    return true;
  }

  /// Arm every event whose time has passed: from now on a delivery of an
  /// update originated before it counts toward its recovery.
  void activate(sim::Time now) {
    while (active_ < events_.size() && events_[active_] <= now) {
      const std::size_t e = active_++;
      // Originations are recorded in time order, so "originated before T"
      // is a prefix of the flat index space.
      cut_[e] = static_cast<std::size_t>(
          std::lower_bound(orig_.begin(), orig_.end(), events_[e]) -
          orig_.begin());
      for (std::size_t n = 0; n < nodes_; ++n) {
        held_count_[e][n] = static_cast<std::size_t>(std::count(
            held_[n].begin(), held_[n].begin() + cut_[e], char{1}));
      }
      if (all_hold(e)) recovered_at_[e] = now;
    }
  }

  /// Run `f`, charged to `layer` in a traced run; returns its duration in
  /// nanoseconds (0 untraced).
  template <class F>
  std::int64_t timed(Layer layer, F&& f) {
    if (!sink_) {
      f();
      return 0;
    }
    const std::int64_t t0 = sink_->begin(0, layer);
    f();
    return sink_->end(0, t0);
  }

  template <class F>
  void inner(F&& f) {
    inner_ns_ += timed(Layer::kAnalysis, f);
  }

  std::size_t nodes_;
  shard::StreamObserver<App>* inner_;
  LayerSink* sink_;
  std::vector<std::vector<std::size_t>> flat_;  ///< [origin][seq-1] -> index
  std::vector<double> orig_;                    ///< origination time
  std::vector<double> all_;    ///< first time every replica had it
  std::vector<std::uint64_t> mask_;
  std::vector<std::vector<char>> held_;  ///< [node][index], current epoch
  std::vector<double> events_;
  std::size_t active_ = 0;
  std::vector<std::size_t> cut_;
  std::vector<double> recovered_at_;
  std::vector<std::vector<std::size_t>> held_count_;
  std::uint64_t deliveries_ = 0;
  std::int64_t inner_ns_ = 0;
};

}  // namespace perfbench
