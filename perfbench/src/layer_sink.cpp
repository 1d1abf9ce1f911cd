#include "layer_sink.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>

namespace perfbench {

namespace {

using obs::EventType;

/// The layer whose code runs after an event of this type, until the next
/// event on the same thread.
Layer layer_after(EventType t) {
  switch (t) {
    case EventType::kSchedulerDispatch:
    case EventType::kPartitionOpen:
    case EventType::kPartitionHeal:
      return Layer::kSim;
    case EventType::kBroadcastDeliver:
    case EventType::kMergeTailAppend:
    case EventType::kMergeMidInsert:
    case EventType::kMergeUndo:
    case EventType::kMergeRedo:
    case EventType::kCheckpointTake:
    case EventType::kCheckpointInvalidate:
    case EventType::kCrash:
    case EventType::kRestart:
      return Layer::kShard;
    default:
      return Layer::kNet;
  }
}

}  // namespace

LayerSink::LayerSink(std::size_t tracks) : tracks_(tracks) {}

std::int64_t LayerSink::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

LayerSink::Track& LayerSink::track_of(const obs::Event& e) {
  return tracks_[std::min<std::size_t>(e.node, tracks_.size() - 1)];
}

void LayerSink::charge(Track& k, std::int64_t now) {
  if (k.last_ns != 0) {
    k.layer_ns[static_cast<std::size_t>(k.layer)] += now - k.last_ns;
  }
}

void LayerSink::on_event(const obs::Event& e) {
  const std::int64_t t = now_ns();
  Track& k = track_of(e);
  // On the threaded runtime the gap before a dispatch is idle time.
  if (e.type != EventType::kSchedulerDispatch || tracks_.size() == 1) {
    charge(k, t);
  }
  switch (e.type) {
    case EventType::kSchedulerDispatch:
      ++k.dispatches;
      break;
    case EventType::kNetSend:
      k.sends.emplace_back(e.b, t);
      break;
    case EventType::kNetDeliver:
      k.delivers.emplace_back(e.b, t);
      break;
    case EventType::kBroadcastDeliver:
      k.deliver_open = t;
      break;
    case EventType::kMergeTailAppend:
      if (k.deliver_open >= 0) k.merge_ns += t - k.deliver_open;
      k.deliver_open = -1;
      break;
    case EventType::kMergeUndo:
      k.undo_open = t;
      break;
    case EventType::kMergeRedo:
      if (k.deliver_open >= 0) {
        k.merge_ns += t - k.deliver_open;
        k.mid_insert_us.push_back(
            static_cast<float>(static_cast<double>(t - k.deliver_open) / 1e3));
      }
      if (k.undo_open >= 0) k.undo_redo_ns += t - k.undo_open;
      k.deliver_open = -1;
      k.undo_open = -1;
      break;
    default:
      break;
  }
  k.layer = layer_after(e.type);
  const std::int64_t done = now_ns();
  k.obs_ns += done - t;
  k.last_ns = done;
}

std::int64_t LayerSink::begin(std::size_t track, Layer layer) {
  Track& k = tracks_[track];
  const std::int64_t t = now_ns();
  charge(k, t);
  k.stack.push_back(k.layer);
  k.layer = layer;
  k.last_ns = t;
  return t;
}

std::int64_t LayerSink::end(std::size_t track, std::int64_t began) {
  Track& k = tracks_[track];
  const std::int64_t t = now_ns();
  charge(k, t);
  if (!k.stack.empty()) {
    k.layer = k.stack.back();
    k.stack.pop_back();
  }
  k.last_ns = t;
  return t - began;
}

LayerSink::Totals LayerSink::totals() const {
  Totals out;
  std::unordered_map<std::uint64_t, std::int64_t> sent_at;
  for (const Track& k : tracks_) {
    for (std::size_t l = 0; l < static_cast<std::size_t>(Layer::kCount); ++l) {
      out.layer_s[l] += static_cast<double>(k.layer_ns[l]) / 1e9;
    }
    out.obs_s += static_cast<double>(k.obs_ns) / 1e9;
    out.merge_s += static_cast<double>(k.merge_ns) / 1e9;
    out.undo_redo_s += static_cast<double>(k.undo_redo_ns) / 1e9;
    out.mid_insert_us.insert(out.mid_insert_us.end(), k.mid_insert_us.begin(),
                             k.mid_insert_us.end());
    out.dispatches += k.dispatches;
    out.net_sends += k.sends.size();
    for (const auto& [id, t] : k.sends) sent_at.emplace(id, t);
  }
  for (const Track& k : tracks_) {
    for (const auto& [id, t] : k.delivers) {
      const auto it = sent_at.find(id);
      if (it != sent_at.end()) {
        out.bus_us.push_back(static_cast<double>(t - it->second) / 1e3);
      }
    }
  }
  return out;
}

}  // namespace perfbench
