// Shared setup for the reproduction harness binaries.
//
// Every bench regenerates the same deterministic study dataset (seed
// 2014) and prints its figure/table next to the paper's reported values.
// Scale can be adjusted without recompiling:
//   BBLAB_SCALE=0.5  population scale (default 0.25 ~ 3000 Dasu users)
//   BBLAB_DAYS=2     observation window days (default 1.5)
//   BBLAB_THREADS=4  simulation worker threads (default 0 = all cores);
//                    the dataset is identical for every value
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/logging.h"
#include "core/thread_pool.h"
#include "dataset/csv.h"
#include "dataset/generator.h"

namespace bblab::bench {

inline double env_or(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : fallback;
}

inline dataset::StudyConfig bench_config() {
  dataset::StudyConfig config;
  config.seed = 2014;
  config.threads = static_cast<std::size_t>(env_or("BBLAB_THREADS", 0.0));
  config.population_scale = env_or("BBLAB_SCALE", 0.25);
  config.window_days = env_or("BBLAB_DAYS", 1.5);
  config.fcc_users = 900;
  config.fcc_window_days = 3.0;
  config.first_year = 2011;
  config.last_year = 2013;
  config.upgrade_follow_share = 0.35;
  return config;
}

/// Load a cached dataset if one exists for this configuration; otherwise
/// generate and cache it. The records and upgrade pairs round-trip through
/// the CSV layer; market snapshots are rebuilt deterministically from the
/// seed. Cache location: $BBLAB_CACHE_DIR or /tmp/bblab_bench_cache.
/// Delete the directory (or set BBLAB_NO_CACHE=1) to force regeneration.
inline dataset::StudyDataset load_or_generate(const dataset::StudyConfig& config) {
  namespace fs = std::filesystem;
  const char* no_cache = std::getenv("BBLAB_NO_CACHE");
  const char* cache_root = std::getenv("BBLAB_CACHE_DIR");
  char key[128];
  std::snprintf(key, sizeof key, "s%llu_p%.4f_w%.2f_f%zu_y%d-%d_u%.2f",
                static_cast<unsigned long long>(config.seed),
                config.population_scale, config.window_days, config.fcc_users,
                config.first_year, config.last_year, config.upgrade_follow_share);
  const fs::path dir =
      fs::path{cache_root != nullptr ? cache_root : "/tmp/bblab_bench_cache"} / key;

  const auto slurp = [](const fs::path& p) {
    std::ifstream in{p};
    return std::string{std::istreambuf_iterator<char>{in},
                       std::istreambuf_iterator<char>{}};
  };

  if (no_cache == nullptr && fs::exists(dir / "dasu.csv")) {
    try {
      std::cerr << "[bench] loading cached dataset from " << dir << "\n";
      dataset::StudyDataset ds;
      ds.config = config;
      ds.dasu = dataset::read_user_records(slurp(dir / "dasu.csv"));
      ds.fcc = dataset::read_user_records(slurp(dir / "fcc.csv"));
      ds.upgrades = dataset::read_upgrades(slurp(dir / "upgrades.csv"));
      Rng root{config.seed};
      ds.markets =
          dataset::StudyGenerator{market::World::builtin(), config}.build_markets(root);
      return ds;
    } catch (const std::exception& e) {
      // Stale schema (the cache predates a format change): regenerate.
      std::cerr << "[bench] cache unusable (" << e.what() << "), regenerating\n";
    }
  }

  std::cerr << "[bench] generating dataset (scale=" << config.population_scale
            << ", window=" << config.window_days << "d, seed=" << config.seed
            << ")...\n";
  auto ds = dataset::StudyGenerator{market::World::builtin(), config}.generate();
  if (no_cache == nullptr) {
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (!ec) {
      std::ofstream{dir / "dasu.csv.tmp"} << [&] {
        std::ostringstream os;
        dataset::write_user_records(os, ds.dasu);
        return os.str();
      }();
      std::ofstream{dir / "fcc.csv.tmp"} << [&] {
        std::ostringstream os;
        dataset::write_user_records(os, ds.fcc);
        return os.str();
      }();
      std::ofstream{dir / "upgrades.csv.tmp"} << [&] {
        std::ostringstream os;
        dataset::write_upgrades(os, ds.upgrades);
        return os.str();
      }();
      // Publish atomically so concurrent benches never read half a cache.
      fs::rename(dir / "dasu.csv.tmp", dir / "dasu.csv", ec);
      fs::rename(dir / "fcc.csv.tmp", dir / "fcc.csv", ec);
      fs::rename(dir / "upgrades.csv.tmp", dir / "upgrades.csv", ec);
    }
  }
  return ds;
}

inline const dataset::StudyDataset& bench_dataset() {
  static const dataset::StudyDataset ds = [] {
    set_log_level(LogLevel::kInfo);
    auto d = load_or_generate(bench_config());
    std::cerr << "[bench] " << d.dasu.size() << " dasu users, " << d.fcc.size()
              << " fcc users, " << d.upgrades.size() << " upgrade pairs\n";
    return d;
  }();
  return ds;
}

/// A small study (seed 2014, one year, ~150 households on half-day
/// windows) simulated shard by shard through StudyGenerator::simulate_shard
/// — the batch path generate() runs — for the pipeline microbenchmarks.
struct ShardWorkload {
  static dataset::StudyConfig config() {
    dataset::StudyConfig c;
    c.seed = 2014;
    c.population_scale = 0.01;
    c.window_days = 0.5;
    c.fcc_users = 30;
    c.fcc_window_days = 0.5;
    c.first_year = 2011;
    c.last_year = 2011;
    return c;
  }

  dataset::StudyGenerator gen{market::World::builtin(), config()};
  std::map<std::string, dataset::MarketSnapshot> markets = gen.build_markets();
  std::vector<dataset::ShardSpec> shards = gen.plan_shards(markets);

  [[nodiscard]] std::int64_t households() const {
    std::int64_t n = 0;
    for (const auto& spec : shards) n += static_cast<std::int64_t>(spec.n_users);
    return n;
  }

  /// Simulate every shard on `pool` in index order, as generate() does;
  /// returns the record count so the work cannot be optimized away.
  std::size_t run(core::ThreadPool& pool) const {
    std::size_t records = 0;
    for (const auto& spec : shards) {
      records += gen.simulate_shard(spec, markets, pool).records.size();
    }
    return records;
  }
};

}  // namespace bblab::bench
