// Read-only views over a cluster's node vector, shared by the two drivers
// that own one: shard::Cluster (deterministic simulator) and
// runtime::RealtimeCluster (threaded backend). Both hold the same
// std::vector<std::unique_ptr<Node<App>>>, so convergence, the
// prefix resolver and the formal Execution are assembled by one piece of
// code whichever backend produced the run.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
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
/// references (core::PrefixRef); only the analysis layer ever
/// materializes the O(history) sets. The resolver reads `nodes` when
/// called, so it must not outlive the vector.
template <core::Application App>
core::PrefixRef::Resolver prefix_resolver(const NodeVector<App>& nodes) {
  return [&nodes](core::NodeId origin, std::uint64_t origin_seq) {
    return nodes.at(origin)->originated().at(origin_seq - 1).ts;
  };
}

/// Assemble the formal execution from every origin's records
/// (`originated[o]` is origin o's, in broadcast order): all transactions in
/// global timestamp order, interned prefixes expanded to serial indices.
///
/// The expansion never goes through timestamps. Once the records are
/// sorted, index[o][seq-1] is the serial index of origin o's seq-th
/// broadcast, and a serializable cut is an index bound (serial order is
/// timestamp order, so ts < cut iff index < lower_bound(cut)). Each prefix
/// is marked into one reusable n-bit set — its contiguous runs, then its
/// extras — and read out ascending up to the cut, which also deduplicates.
/// That is O(n/64 + |prefix|) per transaction and Execution::append finds
/// the prefix already sorted. The same set as
/// PrefixRef::expand(prefix_resolver(nodes)) mapped through timestamps,
/// and the same std::out_of_range for a seq beyond originated().
template <core::Application App>
core::Execution<App> assemble_execution(
    const std::vector<const std::vector<TxRecord<App>>*>& originated) {
  using Word = std::uint64_t;
  constexpr std::size_t kWordBits = 64;
  // (record, its origin), in serial order.
  std::vector<std::pair<const TxRecord<App>*, std::size_t>> order;
  std::vector<std::vector<std::size_t>> index(originated.size());
  for (std::size_t o = 0; o < originated.size(); ++o) {
    for (const auto& rec : *originated[o]) order.emplace_back(&rec, o);
    index[o].resize(originated[o]->size());
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.first->ts < b.first->ts;
  });
  std::vector<core::Timestamp> stamps;
  stamps.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto [rec, o] = order[i];
    stamps.push_back(rec->ts);
    index[o][static_cast<std::size_t>(rec - originated[o]->data())] = i;
  }

  const std::size_t n = order.size();
  std::vector<Word> members((n + kWordBits - 1) / kWordBits, 0);
  const auto mark = [&members](std::size_t i) {
    members[i / kWordBits] |= Word{1} << (i % kWordBits);
  };
  core::Execution<App> exec;
  for (const auto& entry : order) {
    const TxRecord<App>* rec = entry.first;
    const core::PrefixRef& ref = rec->prefix;
    for (std::size_t o = 0; o < ref.contiguous.size(); ++o) {
      const auto count = static_cast<std::size_t>(ref.contiguous[o]);
      if (count == 0) continue;
      const std::vector<std::size_t>& of = index.at(o);
      if (count > of.size()) {
        throw std::out_of_range("prefix counts more broadcasts than origin " +
                                std::to_string(o) + " originated");
      }
      for (std::size_t k = 0; k < count; ++k) mark(of[k]);
    }
    for (const auto& [origin, seq] : ref.extras) {
      mark(index.at(origin).at(static_cast<std::size_t>(seq) - 1));
    }
    const std::size_t bound =
        ref.cut ? static_cast<std::size_t>(
                      std::lower_bound(stamps.begin(), stamps.end(), *ref.cut) -
                      stamps.begin())
                : n;

    core::TxInstance<App> tx;
    tx.ts = rec->ts;
    tx.origin = rec->origin;
    tx.real_time = rec->real_time;
    tx.request = rec->request;
    tx.update = rec->update;
    tx.external_actions = rec->external_actions;
    tx.prefix.reserve(static_cast<std::size_t>(ref.count()));
    for (std::size_t w = 0; w < members.size(); ++w) {
      for (Word bits = members[w]; bits != 0; bits &= bits - 1) {
        const std::size_t j =
            w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
        if (j < bound) tx.prefix.push_back(j);
      }
      members[w] = 0;
    }
    exec.append(std::move(tx));
  }
  return exec;
}

template <core::Application App>
core::Execution<App> assemble_execution(const NodeVector<App>& nodes) {
  std::vector<const std::vector<TxRecord<App>>*> originated;
  originated.reserve(nodes.size());
  for (const auto& n : nodes) originated.push_back(&n->originated());
  return assemble_execution<App>(originated);
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
