// Prefix-index differential suite: the section 3.2 checkers answer every
// membership question through analysis::PrefixIndex. This suite keeps the
// binary-search loops they used before as references and demands identical
// results on the executions the chaos tiers produce, on non-causal
// broadcast runs (which really are non-transitive), and on seeded forged
// executions built through the raw Execution constructor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/airline_theorems.hpp"
#include "analysis/execution_checker.hpp"
#include "analysis/messages.hpp"
#include "analysis/prefix_index.hpp"
#include "apps/airline/airline.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "shard/cluster.hpp"
#include "sim/fault_plan.hpp"
#include "sim/rng.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<15, 900, 300>;
using Exec = core::Execution<Air>;
using InGroup = std::function<bool(const al::Request&)>;

// --- references: the binary-search loops --------------------------------
//
// They need sorted, duplicate-free prefixes, so they run on a normalized
// copy. An entry naming no transaction (>= size) is reported at the
// transaction holding it and otherwise takes no part, as in the index.
namespace ref {

using Prefixes = std::vector<std::vector<std::size_t>>;

Prefixes normalized(const Exec& exec) {
  Prefixes out;
  for (const auto& tx : exec.transactions()) {
    std::vector<std::size_t> p = tx.prefix;
    std::sort(p.begin(), p.end());
    p.erase(std::unique(p.begin(), p.end()), p.end());
    out.push_back(std::move(p));
  }
  return out;
}

bool has(const std::vector<std::size_t>& p, std::size_t x) {
  return std::binary_search(p.begin(), p.end(), x);
}

bool is_transitive(const Exec& exec) {
  const Prefixes pre = normalized(exec);
  for (std::size_t i = 0; i < exec.size(); ++i) {
    for (std::size_t j : pre[i]) {
      if (j >= exec.size()) return false;
      for (std::size_t jj : pre[j]) {
        if (jj < exec.size() && !has(pre[i], jj)) return false;
      }
    }
  }
  return true;
}

analysis::CheckReport check_transitive(const Exec& exec) {
  analysis::CheckReport report("transitivity (§3.2)");
  const Prefixes pre = normalized(exec);
  for (std::size_t i = 0; i < exec.size(); ++i) {
    for (std::size_t j : pre[i]) {
      if (j >= exec.size()) {
        report.add_violation(analysis::msg::prefix_non_preceding(i, j), i);
        continue;
      }
      for (std::size_t jj : pre[j]) {
        if (jj < exec.size() && !has(pre[i], jj)) {
          std::ostringstream os;
          os << "tx " << i << " sees tx " << j << " which sees tx " << jj
             << ", but " << jj << " is not in tx " << i << "'s prefix";
          report.add_violation(os.str(), i);
        }
      }
    }
  }
  return report;
}

bool is_centralized(const Exec& exec, const InGroup& in_group) {
  const Prefixes pre = normalized(exec);
  std::vector<std::size_t> group_members;
  for (std::size_t i = 0; i < exec.size(); ++i) {
    if (!in_group(exec.tx(i).request)) continue;
    for (std::size_t g : group_members) {
      if (!has(pre[i], g)) return false;
    }
    group_members.push_back(i);
  }
  return true;
}

bool is_atomic(const Exec& exec, std::size_t first, std::size_t last) {
  if (first > last || last >= exec.size()) return false;
  const Prefixes pre = normalized(exec);
  std::vector<std::size_t> base;
  for (std::size_t idx : pre[first]) {
    if (idx < first) base.push_back(idx);
  }
  for (std::size_t j = first; j <= last; ++j) {
    for (std::size_t kk = first; kk < j; ++kk) {
      if (!has(pre[j], kk)) return false;
    }
    std::vector<std::size_t> below;
    for (std::size_t idx : pre[j]) {
      if (idx < first) below.push_back(idx);
    }
    if (below != base) return false;
  }
  return true;
}

bool has_t_bounded_delay(const Exec& exec, double t) {
  const Prefixes pre = normalized(exec);
  for (std::size_t i = 0; i < exec.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (exec.tx(j).real_time <= exec.tx(i).real_time - t &&
          !has(pre[i], j)) {
        return false;
      }
    }
  }
  return true;
}

double min_bounded_delay(const Exec& exec) {
  const Prefixes pre = normalized(exec);
  double t = 0.0;
  for (std::size_t i = 0; i < exec.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (!has(pre[i], j)) {
        t = std::max(t, exec.tx(i).real_time - exec.tx(j).real_time);
      }
    }
  }
  return t;
}

bool is_move_up(const al::Request& r) {
  return r.kind == al::Request::Kind::kMoveUp;
}

analysis::CheckReport check_theorem22(const Exec& exec) {
  analysis::CheckReport report("theorem 22 centralized zero overbooking");
  if (!is_transitive(exec)) {
    report.add_violation("hypothesis fails: execution not transitive");
  }
  if (!is_centralized(exec, is_move_up)) {
    report.add_violation("hypothesis fails: MOVE-UPs not centralized");
  }
  const Prefixes pre = normalized(exec);
  std::vector<al::Person> persons;
  for (const auto& tx : exec.transactions()) {
    if (tx.update.kind != al::Update::Kind::kNoop) {
      persons.push_back(tx.update.person);
    }
  }
  std::sort(persons.begin(), persons.end());
  persons.erase(std::unique(persons.begin(), persons.end()), persons.end());
  for (al::Person p : persons) {
    std::vector<std::size_t> group;
    for (std::size_t i = 0; i < exec.size(); ++i) {
      const auto& u = exec.tx(i).update;
      if (u.kind != al::Update::Kind::kNoop && u.person == p) {
        group.push_back(i);
      }
    }
    for (std::size_t gi = 1; gi < group.size(); ++gi) {
      for (std::size_t gj = 0; gj < gi; ++gj) {
        if (!has(pre[group[gi]], group[gj])) {
          std::ostringstream os;
          os << "hypothesis fails: person " << al::person_name(p)
             << " transactions not centralized (tx " << group[gi]
             << " misses tx " << group[gj] << ")";
          report.add_violation(os.str());
        }
      }
    }
  }
  if (!report.ok()) return report;
  const auto states = exec.actual_states();
  for (std::size_t si = 0; si < states.size(); ++si) {
    if (Air::cost(states[si], Air::kOverbooking) != 0.0) {
      std::ostringstream os;
      os << "reachable state " << si << " is overbooked: "
         << Air::cost(states[si], Air::kOverbooking);
      report.add_violation(os.str());
    }
  }
  return report;
}

}  // namespace ref

// --- inputs ---------------------------------------------------------------

Exec run_cluster(harness::Scenario sc, std::uint64_t cluster_seed,
                 sim::Rng& rng, std::uint64_t workload_seed, double horizon) {
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(cluster_seed));
  harness::AirlineWorkload w;
  w.duration = horizon;
  w.request_rate = rng.uniform(1.0, 5.0);
  w.mover_rate = rng.uniform(1.0, 6.0);
  w.move_down_fraction = rng.uniform(0.1, 0.5);
  w.cancel_fraction = rng.uniform(0.0, 0.3);
  w.max_persons = 200;
  harness::drive_airline(cluster, w, workload_seed);
  cluster.run_until(horizon);
  cluster.settle();
  return cluster.execution();
}

/// The chaos tier's run for `seed` (partitions and drops).
Exec chaos_execution(std::uint64_t seed) {
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
Exec crash_chaos_execution(std::uint64_t seed) {
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
Exec correlated_execution(std::uint64_t seed) {
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

/// Lossy WAN with causal delivery off (E15's "flood, no causal" row):
/// reordered arrivals leave some prefixes non-closed.
Exec non_causal_execution(std::uint64_t seed) {
  sim::Rng rng(seed);
  harness::Scenario sc = harness::wan(4);
  sc.drop_probability = 0.15;
  sc.causal_broadcast = false;
  return run_cluster(sc, seed, rng, seed ^ 0xe15, 20.0);
}

/// A forged copy of a real execution through the raw constructor. `kind`
/// picks the damage: 0 holes, 1 non-transitive chains, 2 unsorted and
/// duplicate entries, 3 entries naming no transaction, 4 atomic blocks
/// [7m, 7m+3] (the ranges the comparisons probe), half of them with one
/// entry below the block toggled in one member.
Exec forged_execution(std::uint64_t seed, int kind) {
  sim::Rng rng(seed);
  std::vector<Exec::Tx> txs = non_causal_execution(seed % 4 + 1).transactions();
  txs.resize(std::min<std::size_t>(txs.size(), 120));
  const std::size_t n = txs.size();
  // Uniform in [0, bound).
  const auto pick = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bound) - 1));
  };
  if (kind == 4) {
    for (std::size_t first = 7; first + 3 < n; first += 7) {
      if (!rng.bernoulli(0.5)) continue;
      std::vector<std::size_t> block;
      for (std::size_t idx : txs[first].prefix) {
        if (idx < first) block.push_back(idx);
      }
      txs[first].prefix = block;
      for (std::size_t j = first + 1; j <= first + 3; ++j) {
        block.push_back(j - 1);
        txs[j].prefix = block;
      }
      if (!rng.bernoulli(0.5)) continue;
      auto& p = txs[first + 1 + pick(3)].prefix;
      const std::size_t idx = rng.bernoulli(0.3) ? 0 : pick(first);
      const auto at = std::lower_bound(p.begin(), p.end(), idx);
      if (at != p.end() && *at == idx) {
        p.erase(at);
      } else {
        p.insert(at, idx);
      }
    }
    return Exec(std::move(txs));
  }
  for (std::size_t i = 0; i < n; ++i) {
    auto& p = txs[i].prefix;
    if (!rng.bernoulli(0.2)) continue;
    switch (kind) {
      case 0:
        if (!p.empty()) p.erase(p.begin() + static_cast<std::ptrdiff_t>(pick(p.size())));
        break;
      case 1:
        if (i > 0) {
          p.push_back(pick(i));
          std::sort(p.begin(), p.end());
          p.erase(std::unique(p.begin(), p.end()), p.end());
        }
        break;
      case 2:
        if (!p.empty()) p.push_back(p[pick(p.size())]);
        for (std::size_t a = p.size(); a > 1; --a) std::swap(p[a - 1], p[pick(a)]);
        break;
      default:
        p.push_back(n + pick(6));
        if (rng.bernoulli(0.5)) p.push_back(p.back());  // duplicate ref
        break;
    }
  }
  return Exec(std::move(txs));
}

// --- comparisons ----------------------------------------------------------

const std::vector<std::pair<const char*, InGroup>>& groups() {
  static const std::vector<std::pair<const char*, InGroup>> g = {
      {"move-ups", ref::is_move_up},
      {"movers",
       [](const al::Request& r) {
         return r.kind == al::Request::Kind::kMoveUp ||
                r.kind == al::Request::Kind::kMoveDown;
       }},
      {"requests",
       [](const al::Request& r) {
         return r.kind == al::Request::Kind::kRequest;
       }},
      {"everyone", [](const al::Request&) { return true; }},
  };
  return g;
}

std::vector<double> delays(const Exec& exec) {
  const double m = ref::min_bounded_delay(exec);
  return {0.0, 0.05, 0.5, 2.0, 10.0, m, m * 0.999, m + 1e-9};
}

std::vector<std::pair<std::size_t, std::size_t>> ranges(const Exec& exec) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const std::size_t n = exec.size();
  for (std::size_t first = 0; first < n; first += 7) {
    for (std::size_t len = 0; len < 4; ++len) out.emplace_back(first, first + len);
  }
  out.emplace_back(3, 2);  // empty range
  out.emplace_back(0, n);  // past the end
  return out;
}

/// Identical results on a real execution: verdicts, values, and violation
/// lists message for message.
void expect_identical(const Exec& exec, const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(analysis::is_transitive(exec), ref::is_transitive(exec));
  const analysis::CheckReport got = analysis::check_transitive(exec);
  const analysis::CheckReport want = ref::check_transitive(exec);
  EXPECT_EQ(got.violations(), want.violations());
  EXPECT_EQ(got.violating_txs(), want.violating_txs());
  for (const auto& [name, in_group] : groups()) {
    EXPECT_EQ(analysis::is_centralized<Air>(exec, in_group),
              ref::is_centralized(exec, in_group))
        << name;
  }
  for (const auto& [first, last] : ranges(exec)) {
    EXPECT_EQ(analysis::is_atomic(exec, first, last),
              ref::is_atomic(exec, first, last))
        << "[" << first << ", " << last << "]";
  }
  for (double t : delays(exec)) {
    EXPECT_EQ(analysis::has_t_bounded_delay(exec, t),
              ref::has_t_bounded_delay(exec, t))
        << "t=" << t;
  }
  EXPECT_EQ(analysis::min_bounded_delay(exec), ref::min_bounded_delay(exec));
  EXPECT_EQ(analysis::check_theorem22(exec).violations(),
            ref::check_theorem22(exec).violations());
}

/// Forged executions: verdicts, values and violation counts.
void expect_same_verdicts(const Exec& exec, const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(analysis::is_transitive(exec), ref::is_transitive(exec));
  const analysis::CheckReport got = analysis::check_transitive(exec);
  EXPECT_EQ(got.ok(), analysis::is_transitive(exec));
  EXPECT_EQ(got.violations().size(), ref::check_transitive(exec).violations().size());
  for (const auto& [name, in_group] : groups()) {
    EXPECT_EQ(analysis::is_centralized<Air>(exec, in_group),
              ref::is_centralized(exec, in_group))
        << name;
  }
  for (const auto& [first, last] : ranges(exec)) {
    EXPECT_EQ(analysis::is_atomic(exec, first, last),
              ref::is_atomic(exec, first, last))
        << "[" << first << ", " << last << "]";
  }
  for (double t : delays(exec)) {
    EXPECT_EQ(analysis::has_t_bounded_delay(exec, t),
              ref::has_t_bounded_delay(exec, t))
        << "t=" << t;
  }
  EXPECT_EQ(analysis::min_bounded_delay(exec), ref::min_bounded_delay(exec));
  const analysis::CheckReport t22 = analysis::check_theorem22(exec);
  const analysis::CheckReport r22 = ref::check_theorem22(exec);
  EXPECT_EQ(t22.ok(), r22.ok());
  EXPECT_EQ(t22.violations().size(), r22.violations().size());
}

class ChaosDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosDifferential, IndexMatchesBinarySearch) {
  expect_identical(chaos_execution(GetParam()), "chaos");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosDifferential,
                         ::testing::Range<std::uint64_t>(1000, 1012));

class CrashChaosDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrashChaosDifferential, IndexMatchesBinarySearch) {
  expect_identical(crash_chaos_execution(GetParam()), "crash-chaos");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashChaosDifferential,
                         ::testing::Range<std::uint64_t>(3000, 3012));

class CorrelatedDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CorrelatedDifferential, IndexMatchesBinarySearch) {
  expect_identical(correlated_execution(GetParam()), "correlated");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorrelatedDifferential,
                         ::testing::Range<std::uint64_t>(5000, 5010));

TEST(NonCausalDifferential, ViolationListsMatchOnNonTransitiveRuns) {
  std::size_t non_transitive = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Exec exec = non_causal_execution(seed);
    expect_identical(exec, "non-causal seed " + std::to_string(seed));
    if (!ref::is_transitive(exec)) ++non_transitive;
  }
  // The comparison only proves something if the runs really break §3.2.
  EXPECT_GT(non_transitive, 0u);
}

class ForgedDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ForgedDifferential, VerdictsAndCountsMatch) {
  for (int kind = 0; kind < 5; ++kind) {
    const Exec exec = forged_execution(GetParam(), kind);
    expect_same_verdicts(exec, "forged kind " + std::to_string(kind));
    if (kind == 3) {
      EXPECT_FALSE(analysis::is_transitive(exec));
    }
    if (kind == 4) {  // the atomicity probes must meet real atomic blocks
      std::size_t atomic = 0;
      for (const auto& [first, last] : ranges(exec)) {
        if (first < last && ref::is_atomic(exec, first, last)) ++atomic;
      }
      EXPECT_GT(atomic, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForgedDifferential,
                         ::testing::Range<std::uint64_t>(7000, 7008));

TEST(PrefixIndex, RowsHoldExactlyThePrefixes) {
  std::vector<Exec::Tx> txs(3);
  txs[1].prefix = {0};
  txs[2].prefix = {1, 0, 1, 9};  // unsorted, duplicate, out of range
  const analysis::PrefixIndex index{Exec(std::move(txs))};
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.words(), 1u);
  EXPECT_FALSE(index.contains(0, 0));
  EXPECT_TRUE(index.contains(1, 0));
  EXPECT_TRUE(index.contains(2, 0));
  EXPECT_TRUE(index.contains(2, 1));
  EXPECT_FALSE(index.contains(2, 2));
  EXPECT_TRUE(index.row(0).empty());
  ASSERT_EQ(index.out_of_range().size(), 1u);
  EXPECT_EQ(index.out_of_range()[0], (std::pair<std::size_t, std::size_t>{2, 9}));
  std::vector<std::size_t> members;
  index.for_each_member(2, [&](std::size_t j) { members.push_back(j); });
  EXPECT_EQ(members, (std::vector<std::size_t>{0, 1}));
}

TEST(PrefixIndex, WordBoundaries) {
  // 130 transactions, each seeing every earlier one: three words per row.
  std::vector<Exec::Tx> txs(130);
  for (std::size_t i = 0; i < txs.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) txs[i].prefix.push_back(j);
  }
  txs[129].prefix.erase(txs[129].prefix.begin() + 64);  // hole at 64
  const Exec exec(std::move(txs));
  const analysis::PrefixIndex index(exec);
  EXPECT_EQ(index.words(), 3u);
  EXPECT_TRUE(index.contains(129, 63));
  EXPECT_FALSE(index.contains(129, 64));
  EXPECT_TRUE(index.contains(129, 128));
  EXPECT_EQ(index.row(65).size(), 2u);
  std::vector<std::size_t> excluded;
  index.for_each_excluded(129, index.row(128),
                          [&](std::size_t j) { excluded.push_back(j); });
  EXPECT_EQ(excluded, (std::vector<std::size_t>{64}));
  EXPECT_FALSE(analysis::is_transitive(exec));
  EXPECT_EQ(analysis::check_transitive(exec).violations(),
            ref::check_transitive(exec).violations());
}

}  // namespace
