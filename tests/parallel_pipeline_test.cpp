// Property tests for the parallel simulation/analysis engine: thread
// count must never change any result, and the band-pruned matcher must
// reproduce the brute-force feasible-pair enumeration exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "causal/matching.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "dataset/csv.h"
#include "dataset/generator.h"
#include "market/country.h"

namespace bblab {
namespace {

dataset::StudyConfig small_study() {
  dataset::StudyConfig config;
  config.seed = 77;
  config.population_scale = 0.01;  // ~120 households, keeps the test quick
  config.window_days = 0.5;
  config.fcc_users = 30;
  config.fcc_window_days = 0.5;
  config.first_year = 2011;
  config.last_year = 2011;
  return config;
}

/// Every byte a shard contributes: its records, upgrades and QC ledger.
std::string serialize(const dataset::ShardOutput& out) {
  std::ostringstream os;
  dataset::write_user_records(os, out.records);
  dataset::write_upgrades(os, out.upgrades);
  os << "qc admitted=" << out.qc.admitted << "\n";
  for (const auto& row : out.qc.rows) {
    os << row.index << "|" << quarantine_reason_label(row.reason) << "|" << row.raw
       << "|" << row.detail << "\n";
  }
  return os.str();
}

/// Simulate `specs` on a fresh pool of `threads` workers.
std::vector<std::string> simulate_on(const dataset::StudyGenerator& gen,
                                     std::span<const dataset::ShardSpec> specs,
                                     std::size_t threads) {
  const auto markets = gen.build_markets();
  core::ThreadPool pool{threads};
  std::vector<std::string> out;
  for (const auto& spec : specs) {
    out.push_back(serialize(gen.simulate_shard(spec, markets, pool)));
  }
  return out;
}

TEST(ParallelPipeline, ByteIdenticalAcrossThreadCounts) {
  const dataset::StudyGenerator gen{market::World::builtin(), small_study()};
  const auto specs = gen.plan_shards(gen.build_markets());
  const auto serial = simulate_on(gen, specs, 1);
  ASSERT_EQ(serial.size(), specs.size());
  for (const std::size_t threads : {2u, 8u}) {
    EXPECT_EQ(simulate_on(gen, specs, threads), serial) << threads << " threads";
  }
}

TEST(ParallelPipeline, ByteIdenticalUnderAdversarialCostSkew) {
  // Property (work-stealing determinism): per-household cost skew
  // dictates which workers steal which blocks, and none of that may reach
  // the output. Half the households are followed through an upgrade
  // (three observation windows instead of one) and BitTorrent users
  // saturate their links, so the largest shard's blocks are unbalanced
  // and the steal path actually runs at 2 and 8 threads.
  auto config = small_study();
  config.window_days = 1.0;
  config.upgrade_follow_share = 0.5;
  const dataset::StudyGenerator gen{market::World::builtin(), config};
  const auto specs = gen.plan_shards(gen.build_markets());
  const auto largest = std::max_element(
      specs.begin(), specs.end(),
      [](const auto& a, const auto& b) { return a.n_users < b.n_users; });
  ASSERT_GE(largest->n_users, 16u);
  const std::span<const dataset::ShardSpec> one{&*largest, 1};

  const auto serial = simulate_on(gen, one, 1);
  for (const std::size_t threads : {2u, 8u}) {
    EXPECT_EQ(simulate_on(gen, one, threads), serial) << threads << " threads";
  }
}

TEST(ParallelPipeline, GeneratorDatasetInvariantUnderThreads) {
  auto config = small_study();

  const auto serialize = [](const dataset::StudyDataset& ds) {
    std::ostringstream os;
    dataset::write_user_records(os, ds.dasu);
    dataset::write_user_records(os, ds.fcc);
    dataset::write_upgrades(os, ds.upgrades);
    return os.str();
  };

  config.threads = 1;
  const auto one =
      serialize(dataset::StudyGenerator{market::World::builtin(), config}.generate());
  config.threads = 3;
  const auto three =
      serialize(dataset::StudyGenerator{market::World::builtin(), config}.generate());
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, three);
}

// --- matcher equivalence ---------------------------------------------------

/// The seed's O(T x C) enumeration, kept as the reference oracle.
std::vector<causal::MatchedPair> brute_force_match(
    std::span<const causal::Unit> treated, std::span<const causal::Unit> control,
    const causal::MatcherOptions& options) {
  std::vector<causal::MatchedPair> feasible;
  for (std::size_t t = 0; t < treated.size(); ++t) {
    for (std::size_t c = 0; c < control.size(); ++c) {
      if (!causal::within_caliper(treated[t].covariates, control[c].covariates,
                                  options)) {
        continue;
      }
      feasible.push_back({t, c,
                          causal::covariate_distance(treated[t].covariates,
                                                     control[c].covariates)});
    }
  }
  std::sort(feasible.begin(), feasible.end(),
            [](const causal::MatchedPair& a, const causal::MatchedPair& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              if (a.treated_index != b.treated_index) {
                return a.treated_index < b.treated_index;
              }
              return a.control_index < b.control_index;
            });
  std::vector<bool> treated_used(treated.size(), false);
  std::vector<bool> control_used(control.size(), false);
  std::vector<causal::MatchedPair> pairs;
  for (const auto& p : feasible) {
    if (treated_used[p.treated_index] || control_used[p.control_index]) continue;
    treated_used[p.treated_index] = true;
    control_used[p.control_index] = true;
    pairs.push_back(p);
  }
  return pairs;
}

class CaliperEquivalenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CaliperEquivalenceProperty, PrunedMatcherEqualsBruteForce) {
  Rng rng{GetParam()};
  const std::size_t nt = 20 + rng.index(180);
  const std::size_t nc = 20 + rng.index(180);
  const std::size_t dims = 1 + rng.index(4);
  const auto draw_unit = [&] {
    causal::Unit u;
    u.outcome = rng.uniform();
    for (std::size_t d = 0; d < dims; ++d) {
      // Mix scales and signs; include exact zeros to exercise the slacks.
      double v = rng.lognormal(rng.uniform(0.0, 3.0), 1.0);
      if (rng.bernoulli(0.1)) v = 0.0;
      if (rng.bernoulli(0.2)) v = -v;
      u.covariates.push_back(v);
    }
    return u;
  };
  std::vector<causal::Unit> treated;
  std::vector<causal::Unit> control;
  for (std::size_t i = 0; i < nt; ++i) treated.push_back(draw_unit());
  for (std::size_t i = 0; i < nc; ++i) control.push_back(draw_unit());

  causal::MatcherOptions options;
  options.caliper = rng.uniform(0.05, 0.6);
  options.absolute_slack = rng.bernoulli(0.5) ? 1e-9 : 1e-3;
  if (rng.bernoulli(0.3)) options.absolute_slacks = {0.5};

  const auto expected = brute_force_match(treated, control, options);
  const causal::CaliperMatcher matcher{options};
  const auto serial = matcher.match(treated, control);
  core::ThreadPool pool{4};
  const auto parallel = matcher.match(treated, control, &pool);

  ASSERT_EQ(serial.size(), expected.size());
  ASSERT_EQ(parallel.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(serial[i].treated_index, expected[i].treated_index) << i;
    EXPECT_EQ(serial[i].control_index, expected[i].control_index) << i;
    EXPECT_EQ(serial[i].distance, expected[i].distance) << i;
    EXPECT_EQ(parallel[i].treated_index, expected[i].treated_index) << i;
    EXPECT_EQ(parallel[i].control_index, expected[i].control_index) << i;
    EXPECT_EQ(parallel[i].distance, expected[i].distance) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CaliperEquivalenceProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

}  // namespace
}  // namespace bblab
