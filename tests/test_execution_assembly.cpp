// Execution assembly and apparent-state replay: the differential tier.
//
// shard::assemble_execution expands every interned prefix (core::PrefixRef)
// through per-origin index tables and one reusable bitset, and
// core::Execution::for_each_apparent_state folds each prefix on from the
// leading run it shares with the previous one. Both are compared here with
// the plain definitions they replace:
//   * the reference assembly: records collected into a std::map keyed by
//     timestamp, each prefix expanded to timestamps by PrefixRef::expand
//     through a resolver, then mapped to serial indices through a second
//     std::map;
//   * apparent_state_before(i): the fold of transaction i's whole prefix.
// Inputs: the chaos, crash-chaos and correlated tiers' runs, non-causal
// runs (PrefixRef extras), a mixed-mode run (PrefixRef cuts), a
// RealtimeCluster run, forged record lists and forged executions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/airline/airline.hpp"
#include "core/execution.hpp"
#include "core/prefix.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "runtime/realtime_cluster.hpp"
#include "shard/cluster.hpp"
#include "shard/node_set.hpp"
#include "sim/fault_plan.hpp"
#include "sim/rng.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<15, 900, 300>;
using Exec = core::Execution<Air>;
using Record = shard::TxRecord<Air>;
using Lists = std::vector<std::vector<Record>>;

// --- the reference assembly and the production one on the same lists -----

template <core::Application App>
core::Execution<App> reference_assembly(
    const std::vector<std::vector<shard::TxRecord<App>>>& originated) {
  const core::PrefixRef::Resolver resolve =
      [&originated](core::NodeId origin, std::uint64_t origin_seq) {
        return originated.at(origin).at(origin_seq - 1).ts;
      };
  std::map<core::Timestamp, const shard::TxRecord<App>*> by_ts;
  for (const auto& list : originated) {
    for (const auto& rec : list) by_ts.emplace(rec.ts, &rec);
  }
  std::map<core::Timestamp, std::size_t> index_of;
  std::size_t next = 0;
  for (const auto& [ts, rec] : by_ts) index_of.emplace(ts, next++);
  core::Execution<App> exec;
  for (const auto& [ts, rec] : by_ts) {
    core::TxInstance<App> tx;
    tx.ts = rec->ts;
    tx.origin = rec->origin;
    tx.real_time = rec->real_time;
    tx.request = rec->request;
    tx.update = rec->update;
    tx.external_actions = rec->external_actions;
    for (const core::Timestamp& p : rec->prefix.expand(resolve)) {
      tx.prefix.push_back(index_of.at(p));
    }
    exec.append(std::move(tx));
  }
  return exec;
}

template <core::Application App>
core::Execution<App> assembled(
    const std::vector<std::vector<shard::TxRecord<App>>>& originated) {
  std::vector<const std::vector<shard::TxRecord<App>>*> lists;
  for (const auto& list : originated) lists.push_back(&list);
  return shard::assemble_execution<App>(lists);
}

/// Copies of every node's originated records.
template <core::Application App, class ClusterT>
std::vector<std::vector<shard::TxRecord<App>>> records_of(const ClusterT& c) {
  std::vector<std::vector<shard::TxRecord<App>>> out;
  for (std::size_t o = 0; o < c.num_nodes(); ++o) {
    out.push_back(c.node(static_cast<core::NodeId>(o)).originated());
  }
  return out;
}

// --- comparisons ----------------------------------------------------------

/// Every field of every transaction.
template <core::Application App>
void expect_same_execution(const core::Execution<App>& got,
                           const core::Execution<App>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& g = got.tx(i);
    const auto& w = want.tx(i);
    ASSERT_EQ(g.ts, w.ts) << "tx " << i;
    ASSERT_EQ(g.origin, w.origin) << "tx " << i;
    ASSERT_EQ(g.real_time, w.real_time) << "tx " << i;
    ASSERT_TRUE(g.request == w.request) << "tx " << i;
    ASSERT_EQ(g.prefix, w.prefix) << "tx " << i;
    ASSERT_TRUE(g.update == w.update) << "tx " << i;
    ASSERT_TRUE(g.external_actions == w.external_actions) << "tx " << i;
  }
}

/// for_each_apparent_state visits, in order, exactly the transactions whose
/// prefix names only existing ones, each with apparent_state_before(i).
template <core::Application App>
void expect_replay_matches_fold(const core::Execution<App>& exec) {
  std::vector<std::size_t> visited;
  std::size_t mismatches = 0;
  std::size_t first_mismatch = 0;
  exec.for_each_apparent_state(
      [&](std::size_t i, const typename App::State& s) {
        visited.push_back(i);
        if (!(s == exec.apparent_state_before(i)) && mismatches++ == 0) {
          first_mismatch = i;
        }
      });
  EXPECT_EQ(mismatches, 0u) << "first at tx " << first_mismatch;
  std::vector<std::size_t> want;
  for (std::size_t i = 0; i < exec.size(); ++i) {
    const auto& p = exec.tx(i).prefix;
    if (std::all_of(p.begin(), p.end(),
                    [&exec](std::size_t j) { return j < exec.size(); })) {
      want.push_back(i);
    }
  }
  EXPECT_EQ(visited, want);
}

void expect_assembly_matches(const shard::Cluster<Air>& cluster) {
  const Exec exec = cluster.execution();
  expect_same_execution(exec, reference_assembly(records_of<Air>(cluster)));
  expect_replay_matches_fold(exec);
}

// --- inputs: the tiers' runs ---------------------------------------------

std::unique_ptr<shard::Cluster<Air>> run_cluster(
    harness::Scenario sc, std::uint64_t cluster_seed, sim::Rng& rng,
    std::uint64_t workload_seed, double horizon) {
  auto cluster =
      std::make_unique<shard::Cluster<Air>>(sc.cluster_config<Air>(cluster_seed));
  harness::AirlineWorkload w;
  w.duration = horizon;
  w.request_rate = rng.uniform(1.0, 5.0);
  w.mover_rate = rng.uniform(1.0, 6.0);
  w.move_down_fraction = rng.uniform(0.1, 0.5);
  w.cancel_fraction = rng.uniform(0.0, 0.3);
  w.max_persons = 200;
  harness::drive_airline(*cluster, w, workload_seed);
  cluster->run_until(horizon);
  cluster->settle();
  return cluster;
}

/// The chaos tier's run for `seed` (partitions and drops).
std::unique_ptr<shard::Cluster<Air>> chaos_run(std::uint64_t seed) {
  sim::Rng rng(seed);
  const auto nodes = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const double horizon = 25.0;
  harness::Scenario sc;
  sc.num_nodes = nodes;
  sc.delay = sim::Delay::exponential(rng.uniform(0.005, 0.05),
                                     rng.uniform(0.05, 0.3), 5.0);
  sc.drop_probability = rng.uniform(0.0, 0.3);
  sc.faults = sim::FaultPlan(seed ^ 0x9afb);
  sc.faults.random_partitions(nodes, horizon,
                              static_cast<int>(rng.uniform_int(0, 3)));
  sc.anti_entropy_interval = rng.uniform(0.2, 0.8);
  return run_cluster(sc, seed ^ 0xc4a0, rng, seed ^ 0x5eed, horizon);
}

/// The crash-chaos tier's run for `seed` (crashes, both recovery modes).
std::unique_ptr<shard::Cluster<Air>> crash_chaos_run(std::uint64_t seed) {
  sim::Rng rng(seed);
  const auto nodes = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const double horizon = 25.0;
  harness::Scenario sc;
  sc.num_nodes = nodes;
  sc.delay = sim::Delay::exponential(rng.uniform(0.005, 0.05),
                                     rng.uniform(0.05, 0.3), 5.0);
  sc.drop_probability = rng.uniform(0.0, 0.25);
  sc.faults = sim::FaultPlan(seed ^ 0x37c1);
  sc.faults.random_partitions(nodes, horizon,
                              static_cast<int>(rng.uniform_int(0, 3)));
  sc.faults.random_crashes(nodes, horizon,
                           static_cast<int>(rng.uniform_int(1, 4)),
                           /*min_down=*/1.0, /*max_down=*/6.0,
                           /*amnesia_probability=*/0.5);
  sc.anti_entropy_interval = rng.uniform(0.2, 0.8);
  return run_cluster(sc, seed ^ 0xc4a5, rng, seed ^ 0x5eed, horizon);
}

/// The correlated-fault tier's run for `seed` (rack losses, disk failures).
std::unique_ptr<shard::Cluster<Air>> correlated_run(std::uint64_t seed) {
  sim::Rng rng(seed);
  const auto nodes = static_cast<std::size_t>(rng.uniform_int(3, 6));
  const double horizon = 25.0;
  sim::ChaosOptions opt;
  opt.partition_events = static_cast<int>(rng.uniform_int(1, 3));
  opt.crash_events = static_cast<int>(rng.uniform_int(1, 3));
  opt.rack_loss_probability = 0.6;
  opt.disk_failure_probability = 0.4;
  opt.amnesia_probability = 0.3;
  harness::Scenario sc;
  sc.num_nodes = nodes;
  sc.delay = sim::Delay::exponential(rng.uniform(0.005, 0.05),
                                     rng.uniform(0.05, 0.3), 5.0);
  sc.drop_probability = rng.uniform(0.0, 0.25);
  sc.faults = sim::FaultPlan::chaos(seed ^ 0xc0fa, nodes, horizon, opt);
  sc.anti_entropy_interval = rng.uniform(0.2, 0.8);
  return run_cluster(sc, seed ^ 0xc4a7, rng, seed ^ 0x5eed, horizon);
}

/// Lossy WAN with causal delivery off: out-of-order arrivals leave holes,
/// which records carry as PrefixRef extras.
std::unique_ptr<shard::Cluster<Air>> non_causal_run(std::uint64_t seed) {
  sim::Rng rng(seed);
  harness::Scenario sc = harness::wan(4);
  sc.drop_probability = 0.15;
  sc.causal_broadcast = false;
  return run_cluster(sc, seed, rng, seed ^ 0xe15, 20.0);
}

/// A partitioned WAN with serializable submissions throughout, before,
/// during and after the cut: their records carry PrefixRef cuts.
std::unique_ptr<shard::Cluster<Air>> mixed_mode_run() {
  auto sc = harness::partitioned_wan(4, 3.0, 8.0);
  auto cluster = std::make_unique<shard::Cluster<Air>>(sc.cluster_config<Air>(11));
  harness::AirlineWorkload w;
  w.duration = 15.0;
  w.request_rate = 6.0;
  w.mover_rate = 4.0;
  harness::drive_airline(*cluster, w, 12);
  for (int k = 0; k < 12; ++k) {
    cluster->submit_serializable_at(1.0 + 1.1 * k, static_cast<core::NodeId>(k % 4),
                                    k % 3 == 0 ? al::Request::move_down()
                                               : al::Request::move_up());
  }
  cluster->run_until(w.duration);
  cluster->settle();
  return cluster;
}

class ChaosAssembly : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosAssembly, MatchesReferenceAndFold) {
  expect_assembly_matches(*chaos_run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosAssembly,
                         ::testing::Range<std::uint64_t>(1000, 1012));

class CrashChaosAssembly : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrashChaosAssembly, MatchesReferenceAndFold) {
  expect_assembly_matches(*crash_chaos_run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashChaosAssembly,
                         ::testing::Range<std::uint64_t>(3000, 3012));

class CorrelatedAssembly : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CorrelatedAssembly, MatchesReferenceAndFold) {
  expect_assembly_matches(*correlated_run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorrelatedAssembly,
                         ::testing::Range<std::uint64_t>(5000, 5010));

TEST(NonCausalAssembly, ExtrasExpandLikeTheReference) {
  std::size_t with_extras = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("non-causal seed " + std::to_string(seed));
    const auto cluster = non_causal_run(seed);
    expect_assembly_matches(*cluster);
    for (const auto& list : records_of<Air>(*cluster)) {
      for (const Record& rec : list) with_extras += !rec.prefix.extras.empty();
    }
  }
  // The comparison only covers extras if the runs really produced some.
  EXPECT_GT(with_extras, 0u);
}

TEST(MixedModeAssembly, CutsExpandLikeTheReference) {
  const auto cluster = mixed_mode_run();
  expect_assembly_matches(*cluster);
  const Exec exec = cluster->execution();
  std::map<core::Timestamp, std::size_t> index_of;
  for (std::size_t i = 0; i < exec.size(); ++i) index_of.emplace(exec.tx(i).ts, i);
  std::size_t cuts = 0;
  std::size_t cut_something = 0;
  for (const auto& list : records_of<Air>(*cluster)) {
    for (const Record& rec : list) {
      if (!rec.prefix.cut) continue;
      ++cuts;
      const std::size_t seen = exec.tx(index_of.at(rec.ts)).prefix.size();
      cut_something += seen < rec.prefix.count();
    }
  }
  EXPECT_GE(cuts, 6u);
  // At least one cut must really have removed delivered members.
  EXPECT_GT(cut_something, 0u);
}

TEST(RealtimeAssembly, MatchesReferenceAndFold) {
  runtime::RealtimeConfig cfg;
  cfg.num_nodes = 3;
  cfg.seed = 17;
  cfg.broadcast.anti_entropy_interval = 0.02;
  cfg.broadcast.anti_entropy_jitter = 0.005;
  cfg.bus.min_delay = 0.0002;
  cfg.bus.max_delay = 0.002;
  cfg.bus.drop_probability = 0.05;
  runtime::RealtimeCluster<Air> rc(cfg);
  sim::Rng rng(17);
  constexpr std::uint64_t kRequests = 60;
  for (std::uint64_t k = 0; k < kRequests; ++k) {
    const auto node = static_cast<core::NodeId>(rng.uniform_int(0, 2));
    rc.submit(node, k % 3 == 2 ? al::Request::move_up()
                               : al::Request::request(static_cast<al::Person>(k)));
  }
  ASSERT_TRUE(rc.await_convergence(/*timeout_s=*/60.0, kRequests));
  rc.shutdown();
  const Exec exec = rc.execution();
  ASSERT_EQ(exec.size(), kRequests);
  expect_same_execution(exec, reference_assembly(records_of<Air>(rc)));
  expect_replay_matches_fold(exec);
}

// --- forged record lists: cuts anywhere, duplicate extras, bad refs -------

/// Copies of a run's records with cuts, extras and prefixes rewritten by
/// `seed`: cuts at a member's own timestamp (the bound falls on a marked
/// index), at a non-member's, between two timestamps, and below and above
/// everything; extras that repeat contiguous members, unsorted.
Lists forged_lists(const Lists& real, std::uint64_t seed) {
  sim::Rng rng(seed);
  Lists lists = real;
  std::vector<core::Timestamp> all;
  for (const auto& list : real) {
    for (const Record& rec : list) all.push_back(rec.ts);
  }
  std::sort(all.begin(), all.end());
  const auto pick = [&](const std::vector<core::Timestamp>& v) {
    return v[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
  };
  for (auto& list : lists) {
    for (Record& rec : list) {
      core::PrefixRef& ref = rec.prefix;
      if (rng.bernoulli(0.2)) {  // extras repeating contiguous members
        for (std::size_t o = 0; o < ref.contiguous.size(); ++o) {
          if (ref.contiguous[o] == 0) continue;
          ref.extras.emplace_back(
              static_cast<core::NodeId>(o),
              static_cast<std::uint64_t>(rng.uniform_int(
                  1, static_cast<std::int64_t>(ref.contiguous[o]))));
        }
        std::reverse(ref.extras.begin(), ref.extras.end());
      }
      switch (rng.uniform_int(0, 5)) {
        case 0: {  // a member's own timestamp
          std::vector<core::Timestamp> members;
          for (std::size_t o = 0; o < ref.contiguous.size(); ++o) {
            for (std::uint64_t s = 1; s <= ref.contiguous[o]; ++s) {
              members.push_back(real.at(o).at(s - 1).ts);
            }
          }
          if (!members.empty()) ref.cut = pick(members);
          break;
        }
        case 1:  // any record's timestamp
          ref.cut = pick(all);
          break;
        case 2: {  // strictly between two timestamps
          core::Timestamp t = pick(all);
          t.node += 1000;
          ref.cut = t;
          break;
        }
        case 3:
          ref.cut = core::Timestamp{0, 0};
          break;
        case 4:
          ref.cut = core::Timestamp{all.back().logical + 1, 0};
          break;
        default:
          break;  // no cut, or the run's own
      }
    }
  }
  return lists;
}

class ForgedListAssembly : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ForgedListAssembly, MatchesReference) {
  const auto cluster = GetParam() % 2 == 0 ? chaos_run(1000 + GetParam())
                                           : non_causal_run(GetParam());
  const Lists real = records_of<Air>(*cluster);
  const Lists lists = forged_lists(real, GetParam() ^ 0xf0f0);
  const Exec got = assembled<Air>(lists);
  ASSERT_GT(got.size(), 64u);  // more than one bitset word
  expect_same_execution(got, reference_assembly<Air>(lists));
  expect_replay_matches_fold(got);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForgedListAssembly,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(ForgedListAssembly, BroadcastsNeverOriginatedThrowLikeTheReference) {
  const auto cluster = chaos_run(1001);
  const Lists real = records_of<Air>(*cluster);
  ASSERT_GE(real.size(), 2u);
  ASSERT_FALSE(real[1].empty());
  const std::uint64_t made = real[1].size();
  const auto forge = [&](auto&& damage) {
    Lists lists = real;
    damage(lists[1].back().prefix);
    return lists;
  };
  const std::vector<Lists> bad = {
      forge([&](core::PrefixRef& p) { p.contiguous[1] = made + 1; }),
      forge([&](core::PrefixRef& p) { p.extras.emplace_back(1, made + 1); }),
      forge([&](core::PrefixRef& p) { p.extras.emplace_back(1, 0); }),
      forge([&](core::PrefixRef& p) {
        p.extras.emplace_back(static_cast<core::NodeId>(real.size()), 1);
      }),
      forge([&](core::PrefixRef& p) {
        p.contiguous.resize(real.size() + 1, 0);
        p.contiguous.back() = 1;
      }),
  };
  for (std::size_t k = 0; k < bad.size(); ++k) {
    EXPECT_THROW(assembled<Air>(bad[k]), std::out_of_range) << "damage " << k;
    EXPECT_THROW(reference_assembly<Air>(bad[k]), std::out_of_range)
        << "damage " << k;
  }
  // A zero count for an origin that does not exist names nothing.
  const Lists padded = forge([&](core::PrefixRef& p) {
    p.contiguous.resize(real.size() + 2, 0);
  });
  expect_same_execution(assembled<Air>(padded), reference_assembly<Air>(padded));
}

// --- forged executions: the replay against the plain fold -----------------

/// A copy of `base` with prefixes rewritten by `seed`: shuffled (unsorted),
/// repeated entries, emptied, runs of shrinking and regrowing truncations of
/// one long prefix across snapshot boundaries, random subsequences sharing
/// a stem, entries naming later transactions, and entries naming none.
Exec forged_execution(const Exec& base, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<Exec::Tx> txs = base.transactions();
  const std::size_t n = txs.size();
  const auto below = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bound) - 1));
  };
  for (std::size_t i = 0; i < n;) {
    auto& prefix = txs[i].prefix;
    switch (rng.uniform_int(0, 8)) {
      case 0:  // unsorted
        for (std::size_t k = prefix.size(); k > 1; --k) {
          std::swap(prefix[k - 1], prefix[below(k)]);
        }
        break;
      case 1:  // duplicated entries
        for (int d = 0; d < 3 && !prefix.empty(); ++d) {
          const std::size_t at = below(prefix.size());
          prefix.insert(prefix.begin() + static_cast<std::ptrdiff_t>(at),
                        prefix[below(prefix.size())]);
        }
        break;
      case 2:  // empty
        prefix.clear();
        break;
      case 3: {  // shrinking, then regrowing, truncations of one prefix
        const std::vector<std::size_t> stem = prefix;
        const std::size_t len = stem.size();
        const std::vector<std::size_t> lengths = {
            len,      len - std::min<std::size_t>(len, 1),
            len / 2,  std::min<std::size_t>(len, 64),
            std::min<std::size_t>(len, 63), std::min<std::size_t>(len, 33),
            std::min<std::size_t>(len, 32), std::min<std::size_t>(len, 31),
            0,        std::min<std::size_t>(len, 65), len};
        for (std::size_t k = 0; k < lengths.size() && i < n; ++k, ++i) {
          txs[i].prefix.assign(stem.begin(),
                               stem.begin() +
                                   static_cast<std::ptrdiff_t>(lengths[k]));
        }
        continue;
      }
      case 4: {  // a random subsequence of a shared stem
        const std::vector<std::size_t> stem = prefix;
        prefix.clear();
        for (std::size_t j : stem) {
          if (rng.bernoulli(0.9)) prefix.push_back(j);
        }
        break;
      }
      case 5:  // names a later, existing transaction
        prefix.push_back(below(n));
        break;
      case 6:  // names no transaction: not visited
        prefix.insert(prefix.begin() + static_cast<std::ptrdiff_t>(
                                           below(prefix.size() + 1)),
                      n + below(5));
        break;
      default:
        break;
    }
    ++i;
  }
  return Exec(std::move(txs));
}

class ForgedReplay : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ForgedReplay, VisitorEqualsPlainFold) {
  const Exec base = GetParam() % 2 == 0 ? chaos_run(1002)->execution()
                                        : non_causal_run(2)->execution();
  ASSERT_GT(base.size(), 64u);
  for (std::uint64_t k = 0; k < 4; ++k) {
    SCOPED_TRACE("forgery " + std::to_string(k));
    expect_replay_matches_fold(forged_execution(base, GetParam() * 16 + k));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForgedReplay,
                         ::testing::Range<std::uint64_t>(8000, 8008));

TEST(ForgedReplay, EmptyExecutionVisitsNothing) {
  std::size_t calls = 0;
  Exec().for_each_apparent_state(
      [&](std::size_t, const Air::State&) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

// --- machine-independent work pin -----------------------------------------

/// Air with a count of every update application.
struct CountingAir : Air {
  static inline std::uint64_t applies = 0;
  static void apply(const Update& u, State& s) {
    ++applies;
    Air::apply(u, s);
  }
};

TEST(ReplayWork, AppliesFarFewerUpdatesThanThePrefixesHold) {
  // Repeated half/half partitions: each side's prefixes stop growing for
  // the other side's transactions, so consecutive prefixes part ways.
  harness::Scenario sc = harness::lan(5);
  sc.faults.split_halves(5, 2, 3.0, 9.0)
      .split_halves(5, 2, 13.0, 19.0)
      .split_halves(5, 2, 23.0, 29.0);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(101));
  harness::AirlineWorkload w;
  w.duration = 32.0;
  w.request_rate = 8.0;
  w.mover_rate = 8.0;
  harness::drive_airline(cluster, w, 102);
  cluster.run_until(w.duration);
  cluster.settle();
  const Exec exec = cluster.execution();

  std::vector<core::TxInstance<CountingAir>> txs;
  std::uint64_t entries = 0;
  for (const auto& tx : exec.transactions()) {
    txs.push_back({tx.ts, tx.origin, tx.real_time, tx.request, tx.prefix,
                   tx.update, tx.external_actions});
    entries += tx.prefix.size();
  }
  const core::Execution<CountingAir> counted(std::move(txs));
  CountingAir::applies = 0;
  std::size_t visited = 0;
  counted.for_each_apparent_state(
      [&](std::size_t, const Air::State&) { ++visited; });
  const std::uint64_t applies = CountingAir::applies;
  ASSERT_EQ(visited, exec.size());
  ASSERT_GT(exec.size(), 400u);
  const double ratio =
      static_cast<double>(applies) / static_cast<double>(entries);
  std::cout << "[ replay  ] " << exec.size() << " txs, sum|prefix| = "
            << entries << ", App::apply calls = " << applies
            << ", ratio = " << ratio << "\n";
  RecordProperty("apply_per_prefix_entry_x1000",
                 static_cast<int>(ratio * 1000.0));
  // The plain fold costs one apply per prefix entry.
  EXPECT_LT(applies * 10, entries);
}

}  // namespace
