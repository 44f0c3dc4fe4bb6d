#include "dataset/generator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "obs/metrics.h"
#include "stats/quantile.h"

namespace bblab::dataset {
namespace {

StudyConfig small_config() {
  StudyConfig config;
  config.seed = 7;
  config.population_scale = 0.03;
  config.window_days = 1.0;
  config.fcc_users = 90;
  config.fcc_window_days = 2.0;
  config.first_year = 2011;
  config.last_year = 2012;
  config.upgrade_follow_share = 0.3;
  return config;
}

const StudyDataset& shared_dataset() {
  static const StudyDataset ds = [] {
    const auto world = market::World::builtin();
    return StudyGenerator{world, small_config()}.generate();
  }();
  return ds;
}

TEST(StudyGenerator, ProducesAllComponents) {
  const auto& ds = shared_dataset();
  EXPECT_GT(ds.dasu.size(), 200u);
  EXPECT_GT(ds.fcc.size(), 50u);
  EXPECT_GT(ds.upgrades.size(), 10u);
  EXPECT_EQ(ds.markets.size(), market::World::builtin().size());
}

TEST(StudyGenerator, RecordsAreInternallyConsistent) {
  const auto& ds = shared_dataset();
  std::set<std::uint64_t> ids;
  for (const auto& r : ds.dasu) {
    EXPECT_TRUE(ids.insert(r.user_id).second) << "duplicate user id";
    EXPECT_GT(r.capacity.bps(), 0.0);
    EXPECT_GT(r.rtt_ms, 0.0);
    EXPECT_GE(r.loss, 0.0);
    EXPECT_LE(r.loss, 0.35);
    EXPECT_GT(r.plan_price.dollars(), 0.0);
    EXPECT_GT(r.access_price.dollars(), 0.0);
    EXPECT_GE(r.year, 2011);
    EXPECT_LE(r.year, 2012);
    EXPECT_GT(r.usage.samples, 0u);
    // Note: p95 may sit BELOW the mean for extremely bursty users (one
    // multi-GB download can dominate the mean while occupying <5% of
    // samples), so no mean/peak ordering is asserted — only sanity.
    EXPECT_GE(r.usage.peak_down.bps(), 0.0);
    EXPECT_GE(r.usage.mean_down.bps(), 0.0);
  }
}

TEST(StudyGenerator, MeasuredCapacityTracksPlan) {
  const auto& ds = shared_dataset();
  std::size_t close = 0;
  std::size_t clean_lines = 0;
  for (const auto& r : ds.dasu) {
    if (r.loss > 0.005 || r.rtt_ms > 300) continue;  // NDT underreads these
    ++clean_lines;
    if (r.capacity.bps() > 0.6 * r.plan_capacity.bps() &&
        r.capacity.bps() <= 1.05 * r.plan_capacity.bps()) {
      ++close;
    }
  }
  ASSERT_GT(clean_lines, 100u);
  EXPECT_GT(static_cast<double>(close) / static_cast<double>(clean_lines), 0.8);
}

TEST(StudyGenerator, DeterministicForSameSeed) {
  const auto world = market::World::builtin();
  const std::vector<std::string> codes{"US", "JP"};
  const auto sub = world.subset(codes);
  StudyConfig config = small_config();
  config.population_scale = 0.02;
  const auto a = StudyGenerator{sub, config}.generate();
  const auto b = StudyGenerator{sub, config}.generate();
  ASSERT_EQ(a.dasu.size(), b.dasu.size());
  for (std::size_t i = 0; i < a.dasu.size(); ++i) {
    EXPECT_EQ(a.dasu[i].user_id, b.dasu[i].user_id);
    EXPECT_DOUBLE_EQ(a.dasu[i].capacity.bps(), b.dasu[i].capacity.bps());
    EXPECT_DOUBLE_EQ(a.dasu[i].usage.mean_down.bps(), b.dasu[i].usage.mean_down.bps());
  }
}

TEST(StudyGenerator, CountsItsShardsOnEveryRun) {
  // A plain generate() reports the shards it ran under the same counters
  // a checkpointed run does, so a run report's headline is never 0.
  auto& registry = obs::Registry::instance();
  const auto count = [&](const char* name) { return registry.counter(name).value(); };
  const std::uint64_t planned = count("checkpoint.shards_planned");
  const std::uint64_t reused = count("checkpoint.shards_reused");
  const std::uint64_t simulated = count("checkpoint.shards_simulated");
  const std::uint64_t quarantined = count("checkpoint.shards_quarantined");

  StudyConfig config;
  config.seed = 3;
  config.population_scale = 0.01;
  config.window_days = 0.25;
  config.fcc_users = 10;
  config.fcc_window_days = 0.25;
  config.first_year = 2011;
  config.last_year = 2011;
  const StudyGenerator gen{market::World::builtin(), config};
  const std::size_t shards = gen.plan_shards(gen.build_markets()).size();
  ASSERT_GT(shards, 0u);
  (void)gen.generate();

  EXPECT_EQ(count("checkpoint.shards_planned") - planned, shards);
  EXPECT_EQ(count("checkpoint.shards_simulated") - simulated, shards);
  EXPECT_EQ(count("checkpoint.shards_reused") - reused, 0u);
  EXPECT_EQ(count("checkpoint.shards_quarantined") - quarantined, 0u);
}

TEST(StudyGenerator, MarketSnapshotsCoverCaseStudies) {
  const auto& ds = shared_dataset();
  for (const auto* code : {"BW", "SA", "US", "JP", "IN"}) {
    const auto it = ds.markets.find(code);
    ASSERT_NE(it, ds.markets.end()) << code;
    EXPECT_FALSE(it->second.catalog.empty()) << code;
    EXPECT_GT(it->second.access_price.dollars(), 0.0) << code;
  }
  // The US market must have a defined (finite) upgrade cost.
  EXPECT_TRUE(std::isfinite(ds.markets.at("US").upgrade_cost_per_mbps));
}

TEST(StudyGenerator, UpgradeObservationsAreFasterAfter) {
  const auto& ds = shared_dataset();
  for (const auto& u : ds.upgrades) {
    EXPECT_TRUE(u.is_upgrade());
    EXPECT_GT(u.new_capacity.bps(), u.old_capacity.bps());
    EXPECT_GT(u.before.samples, 0u);
    EXPECT_GT(u.after.samples, 0u);
  }
}

TEST(StudyGenerator, SubscriberCountsGrowAcrossYears) {
  const auto& ds = shared_dataset();
  std::size_t y2011 = 0;
  std::size_t y2012 = 0;
  for (const auto& r : ds.dasu) {
    (r.year == 2011 ? y2011 : y2012)++;
  }
  EXPECT_GT(y2012, y2011);
}

TEST(StudyGenerator, UsCapacityDistributionIsDiverse) {
  const auto& ds = shared_dataset();
  std::vector<double> caps;
  for (const auto& r : ds.dasu) {
    if (r.country_code == "US") caps.push_back(r.capacity.mbps());
  }
  ASSERT_GT(caps.size(), 100u);
  EXPECT_LT(stats::quantile(caps, 0.1), 8.0);
  EXPECT_GT(stats::quantile(caps, 0.9), 20.0);
}

TEST(StudyGenerator, PlaceboRunsAndDisablesEffects) {
  const auto world = market::World::builtin();
  const std::vector<std::string> codes{"US"};
  StudyConfig config = small_config();
  config.population_scale = 0.02;
  config.placebo = true;
  const auto ds = StudyGenerator{world.subset(codes), config}.generate();
  EXPECT_GT(ds.dasu.size(), 50u);
}

TEST(StudyGenerator, ValidatesConfig) {
  const auto world = market::World::builtin();
  StudyConfig bad = small_config();
  bad.population_scale = 0.0;
  EXPECT_THROW(StudyGenerator(world, bad), InvalidArgument);
  bad = small_config();
  bad.last_year = bad.first_year - 1;
  EXPECT_THROW(StudyGenerator(world, bad), InvalidArgument);
}

}  // namespace
}  // namespace bblab::dataset
