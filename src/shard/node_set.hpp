// Read-only views over a cluster's node vector, shared by the two drivers
// that own one: shard::Cluster (deterministic simulator) and
// runtime::RealtimeCluster (threaded backend). Both hold the same
// std::vector<std::unique_ptr<Node<App>>>, so convergence, the
// prefix resolver and the formal Execution are assembled by one piece of
// code whichever backend produced the run.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/execution.hpp"
#include "core/prefix.hpp"
#include "obs/event.hpp"
#include "obs/tracer.hpp"
#include "shard/node.hpp"
#include "sim/network.hpp"

namespace shard {

template <core::Application App>
using NodeVector = std::vector<std::unique_ptr<Node<App>>>;

template <core::Application App>
std::uint64_t total_originated(const NodeVector<App>& nodes) {
  std::uint64_t total = 0;
  for (const auto& n : nodes) total += n->originated().size();
  return total;
}

/// Every node knows every update (and therefore, by the merge invariant,
/// every replica state is identical) — the paper's mutual consistency.
template <core::Application App>
bool converged(const NodeVector<App>& nodes) {
  const std::uint64_t total = total_originated(nodes);
  for (const auto& n : nodes) {
    if (n->updates_known() != total) return false;
  }
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (!(nodes[i]->state() == nodes[0]->state())) return false;
  }
  return true;
}

/// Maps (origin, 1-based broadcast seq) to that broadcast's timestamp:
/// origin o's seq-th broadcast is its (seq-1)-th originated record. This
/// is the lazy half of prefix interning — Records carry O(#nodes)
/// references (core::PrefixRef); only the analysis layer, through this
/// resolver, ever materializes the O(history) timestamp sets. The resolver
/// reads `nodes` when called, so it must not outlive the vector.
template <core::Application App>
core::PrefixRef::Resolver prefix_resolver(const NodeVector<App>& nodes) {
  return [&nodes](core::NodeId origin, std::uint64_t origin_seq) {
    return nodes.at(origin)->originated().at(origin_seq - 1).ts;
  };
}

/// Assemble the formal execution: all transactions from all origins in
/// global timestamp order, interned prefixes expanded (via
/// prefix_resolver) and mapped from timestamps to indices.
template <core::Application App>
core::Execution<App> assemble_execution(const NodeVector<App>& nodes) {
  // Collect (timestamp -> record) across nodes; std::map orders by ts.
  std::map<core::Timestamp, const TxRecord<App>*> by_ts;
  for (const auto& n : nodes) {
    for (const auto& rec : n->originated()) by_ts.emplace(rec.ts, &rec);
  }
  std::map<core::Timestamp, std::size_t> index_of;
  std::size_t next = 0;
  for (const auto& [ts, rec] : by_ts) index_of.emplace(ts, next++);

  const core::PrefixRef::Resolver resolve = prefix_resolver(nodes);
  core::Execution<App> exec;
  for (const auto& [ts, rec] : by_ts) {
    core::TxInstance<App> tx;
    tx.ts = rec->ts;
    tx.origin = rec->origin;
    tx.real_time = rec->real_time;
    tx.request = rec->request;
    tx.update = rec->update;
    tx.external_actions = rec->external_actions;
    const std::vector<core::Timestamp> pts = rec->prefix.expand(resolve);
    tx.prefix.reserve(pts.size());
    for (const core::Timestamp& p : pts) tx.prefix.push_back(index_of.at(p));
    exec.append(std::move(tx));
  }
  return exec;
}

inline obs::EventType fate_event_type(sim::Network::MessageFate fate) {
  switch (fate) {
    case sim::Network::MessageFate::kSent:
      return obs::EventType::kNetSend;
    case sim::Network::MessageFate::kDelivered:
      return obs::EventType::kNetDeliver;
    case sim::Network::MessageFate::kDroppedPartition:
      return obs::EventType::kNetDropPartition;
    case sim::Network::MessageFate::kDroppedRandom:
      return obs::EventType::kNetDropRandom;
    case sim::Network::MessageFate::kDroppedCrashed:
      return obs::EventType::kNetDropCrashed;
  }
  return obs::EventType::kNetSend;  // unreachable
}

/// Record one message fate on the node track whose program order it belongs
/// to: send-side fates on the source's; deliveries and delivery-time crash
/// drops (id != 0: the message travelled) on the destination's — so the
/// causal graph threads each node's track through the deliveries it
/// actually observed. `tracer_at(node)` returns that node's obs::Tracer&.
template <class TracerAt>
void record_message_fate(TracerAt&& tracer_at, sim::Time now, sim::NodeId src,
                         sim::NodeId dst, std::uint64_t id,
                         sim::Network::MessageFate fate) {
  const obs::EventType type = fate_event_type(fate);
  const bool at_dst = type == obs::EventType::kNetDeliver ||
                      (type == obs::EventType::kNetDropCrashed && id != 0);
  const sim::NodeId at = at_dst ? dst : src;
  tracer_at(at).record(type, now, at, 0, 0, at_dst ? src : dst, id);
}

}  // namespace shard
