// The benchmark-owned trace sink of a traced run: stamps steady_clock on
// every event and turns the event stream into per-layer wall time and
// spans.
//
// Each thread that records events owns one track (the DES has one; the
// threaded runtime has one per worker, and an event's node is the worker it
// fires on, per the runtime::Hooks contract). A track is written only by
// its own thread, so the sink needs no lock; totals() is read after the
// run has quiesced.
//
// Self time: the wall time between two consecutive stamps on a track is
// charged to the layer whose code runs after the earlier event (a
// scheduler.dispatch starts sim code, a broadcast.deliver starts the merge,
// a net.* or broadcast.* event continues ReliableBroadcast, and so on).
// The sink's own time inside on_event is charged to obs. The benchmark's
// own timed calls push a layer with begin() and pop it with end():
// try_submit is shard, the streaming checker behind the forwarding
// StreamObserver is analysis, and that observer's own bookkeeping goes to
// kBench (the benchmark's own code), so it is never charged to a layer of
// the system. With more than one track (the threaded runtime) the gap that ends at a
// dispatch is the worker's queue wait plus the tail of its previous task;
// it is idle time and charged to no layer. With one track (the simulator)
// every gap between the first and the last event is charged somewhere, so
// the coverage there only shows the time outside those two events.
//
// Spans, as pairs of events on one track:
//   broadcast.deliver -> merge.tail_append | merge.redo   merge of an update
//   merge.undo -> merge.redo                              undo/redo recompute
//   net.send -> net.deliver (by message id, across tracks) bus transit
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/tracer.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kSim,
  kNet,
  kShard,
  kAnalysis,
  kBench,  ///< the benchmark's own bookkeeping, not a layer of the system
  kCount
};

class LayerSink final : public obs::Sink {
 public:
  /// `tracks`: number of recording threads, 1 on the simulator and one per
  /// worker on the threaded runtime.
  explicit LayerSink(std::size_t tracks);

  LayerSink(const LayerSink&) = delete;
  LayerSink& operator=(const LayerSink&) = delete;

  void on_event(const obs::Event& e) override;

  /// Enter / leave a benchmark-timed call on `track`'s own thread. end()
  /// returns the call's duration in nanoseconds.
  std::int64_t begin(std::size_t track, Layer layer);
  std::int64_t end(std::size_t track, std::int64_t began);

  struct Totals {
    double layer_s[static_cast<std::size_t>(Layer::kCount)] = {};
    double obs_s = 0.0;
    double merge_s = 0.0;
    double undo_redo_s = 0.0;
    std::vector<double> mid_insert_us;
    std::vector<double> bus_us;
    std::uint64_t dispatches = 0;
    std::uint64_t net_sends = 0;
  };
  Totals totals() const;

  static std::int64_t now_ns();

 private:
  struct alignas(64) Track {
    std::int64_t last_ns = 0;
    Layer layer = Layer::kSim;
    std::vector<Layer> stack;
    std::int64_t layer_ns[static_cast<std::size_t>(Layer::kCount)] = {};
    std::int64_t obs_ns = 0;
    std::int64_t deliver_open = -1;
    std::int64_t undo_open = -1;
    std::int64_t merge_ns = 0;
    std::int64_t undo_redo_ns = 0;
    std::vector<float> mid_insert_us;
    std::vector<std::pair<std::uint64_t, std::int64_t>> sends;
    std::vector<std::pair<std::uint64_t, std::int64_t>> delivers;
    std::uint64_t dispatches = 0;
  };

  Track& track_of(const obs::Event& e);
  void charge(Track& k, std::int64_t now);

  std::vector<Track> tracks_;
};

}  // namespace perfbench
