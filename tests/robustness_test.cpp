// Graceful-degradation properties of the fault-injected pipeline: an
// injected per-household failure is quarantined rather than fatal, the
// failure-rate threshold aborts a run that is mostly garbage, and the
// whole degraded run — shards, dataset, AND quarantine ledger — stays
// bit-identical across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/thread_pool.h"
#include "dataset/csv.h"
#include "dataset/generator.h"
#include "faults/fault_plan.h"
#include "market/country.h"

namespace bblab {
namespace {

dataset::StudyConfig faulted_study(const std::string& faults) {
  dataset::StudyConfig config;
  config.seed = 77;
  config.population_scale = 0.01;
  config.window_days = 0.25;
  config.fcc_users = 20;
  config.fcc_window_days = 0.25;
  config.first_year = 2011;
  config.last_year = 2011;
  config.faults = faults::FaultPlan::parse(faults);
  config.max_household_failure_rate = 1.0;  // never abort unless a test says so
  return config;
}

/// The planned shard with the most households.
dataset::ShardSpec largest_shard(const dataset::StudyGenerator& gen) {
  const auto specs = gen.plan_shards(gen.build_markets());
  return *std::max_element(
      specs.begin(), specs.end(),
      [](const auto& a, const auto& b) { return a.n_users < b.n_users; });
}

/// A QC ledger as text, so byte-equality covers it too.
std::string qc_text(const core::QuarantineReport& qc) {
  std::ostringstream os;
  os << "qc admitted=" << qc.admitted << "\n";
  for (const auto& row : qc.rows) {
    os << row.index << "|" << quarantine_reason_label(row.reason) << "|"
       << row.raw << "|" << row.detail << "\n";
  }
  return os.str();
}

/// Serialize a shard's output plus its QC ledger.
std::string serialize_shard(const dataset::ShardOutput& out) {
  std::ostringstream os;
  dataset::write_user_records(os, out.records);
  dataset::write_upgrades(os, out.upgrades);
  return os.str() + qc_text(out.qc);
}

TEST(Robustness, InjectedFailureIsQuarantinedNotFatal) {
  const dataset::StudyGenerator gen{market::World::builtin(),
                                    faulted_study("fail=0.3,seed=11")};
  const auto spec = largest_shard(gen);
  ASSERT_GE(spec.n_users, 16u);
  core::ThreadPool pool{4};
  const auto out = gen.simulate_shard(spec, gen.build_markets(), pool);

  const std::size_t failed = out.qc.quarantined();
  EXPECT_GT(failed, 0u);           // fail=0.3 over a few dozen users: ~certain
  EXPECT_LT(failed, spec.n_users); // and equally certain not all fail
  EXPECT_EQ(out.qc.admitted, spec.n_users - failed);
  EXPECT_EQ(out.qc.count(QuarantineReason::kInjectedFault), failed);
  EXPECT_LE(out.records.size(), out.qc.admitted);
  EXPECT_FALSE(out.records.empty());

  // Quarantine rows identify the household by user id, and a failed
  // household contributes no record.
  for (const auto& row : out.qc.rows) {
    EXPECT_EQ(row.reason, QuarantineReason::kInjectedFault);
    EXPECT_GE(row.index, spec.base_id);
    EXPECT_LT(row.index, spec.base_id + spec.n_users);
    EXPECT_EQ(row.raw, "user " + std::to_string(row.index));
    for (const auto& rec : out.records) EXPECT_NE(rec.user_id, row.index);
  }
}

TEST(Robustness, FailureRateThresholdAbortsBatch) {
  auto config = faulted_study("fail=1.0");
  config.max_household_failure_rate = 0.5;
  try {
    (void)dataset::StudyGenerator{market::World::builtin(), config}.generate();
    FAIL() << "a run where every household fails completed";
  } catch (const AnalysisError& e) {
    EXPECT_NE(std::string{e.what()}.find("household failure rate 1.0"),
              std::string::npos)
        << e.what();
  }
}

TEST(Robustness, FaultedBatchInvariantUnderThreadCounts) {
  const dataset::StudyGenerator gen{
      market::World::builtin(),
      faulted_study("churn=0.4,outage_h=0.5,blackout=0.3,blackout_h=0.25,reset=0.3,"
                    "wrap=0.3,skew=0.5,skew_s=45,fail=0.2,seed=3")};
  const auto markets = gen.build_markets();
  const auto specs = gen.plan_shards(markets);
  const auto simulate_all = [&](std::size_t threads) {
    core::ThreadPool pool{threads};
    std::vector<std::string> out;
    for (const auto& spec : specs) {
      out.push_back(serialize_shard(gen.simulate_shard(spec, markets, pool)));
    }
    return out;
  };
  const auto serial = simulate_all(1);
  for (const std::size_t threads : {2u, 8u}) {
    EXPECT_EQ(simulate_all(threads), serial) << threads << " threads";
  }
}

/// Serialize a dataset plus its QC ledger.
std::string serialize_with_qc(const dataset::StudyDataset& ds) {
  std::ostringstream os;
  dataset::write_user_records(os, ds.dasu);
  dataset::write_user_records(os, ds.fcc);
  dataset::write_upgrades(os, ds.upgrades);
  return os.str() + qc_text(ds.qc);
}

TEST(Robustness, GeneratorWithFaultsInvariantUnderThreads) {
  dataset::StudyConfig config;
  config.seed = 77;
  config.population_scale = 0.01;
  config.window_days = 0.5;
  config.fcc_users = 20;
  config.fcc_window_days = 0.5;
  config.first_year = 2011;
  config.last_year = 2011;
  config.faults = faults::FaultPlan::parse(
      "churn=0.3,outage_h=1,blackout=0.2,reset=0.2,wrap=0.2,skew=0.5,fail=0.05");
  config.max_household_failure_rate = 1.0;  // never abort this test

  config.threads = 1;
  const auto one = serialize_with_qc(
      dataset::StudyGenerator{market::World::builtin(), config}.generate());
  config.threads = 3;
  const auto three = serialize_with_qc(
      dataset::StudyGenerator{market::World::builtin(), config}.generate());
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, three);
}

TEST(Robustness, GeneratorQuarantinesInjectedHouseholdFailures) {
  dataset::StudyConfig config;
  config.seed = 5;
  config.population_scale = 0.01;
  config.window_days = 0.25;
  config.fcc_users = 10;
  config.fcc_window_days = 0.25;
  config.first_year = 2011;
  config.last_year = 2011;
  config.max_household_failure_rate = 1.0;
  config.faults = faults::FaultPlan::parse("fail=0.3");

  const auto ds =
      dataset::StudyGenerator{market::World::builtin(), config}.generate();
  EXPECT_FALSE(ds.qc.empty());
  EXPECT_GT(ds.qc.count(QuarantineReason::kInjectedFault), 0u);
  EXPECT_GT(ds.dasu.size(), 0u);  // the run still produced usable records

  // The same config with a tight threshold aborts instead.
  config.max_household_failure_rate = 0.001;
  EXPECT_THROW((dataset::StudyGenerator{market::World::builtin(), config}.generate()),
               AnalysisError);
}

}  // namespace
}  // namespace bblab
