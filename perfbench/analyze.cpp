// The `analyze` workload: load a packed scale-0.1 snapshot through the
// CLI's `--cache` path (store::ArtifactCache::load), then render all
// figures, all experiments and the scorecard, single-threaded as the
// CLI does. One operation is one such load-and-render-everything pass.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "analysis/render.h"
#include "bench.h"
#include "core/error.h"
#include "market/country.h"
#include "store/cache.h"
#include "store/fingerprint.h"

namespace perfbench {

using namespace bblab;

namespace {

/// The capacity line of fig1, computed apart from the analysis layer:
/// coverage-admitted Dasu records, std::sort, R type-7 quantiles.
std::string fig1_capacity_line(const dataset::StudyDataset& ds) {
  std::vector<double> mbps;
  std::size_t nan = 0;
  for (const auto& r : ds.dasu) {
    if (!ds.config.coverage.admits(r.usage, ds.config.dasu_bin_s)) continue;
    const double v = r.capacity.mbps();
    if (std::isnan(v)) {
      ++nan;
    } else {
      mbps.push_back(v);
    }
  }
  std::string line = "  capacity [Mbps] (n=" + std::to_string(mbps.size());
  if (nan > 0) line += ", " + std::to_string(nan) + " NaN dropped";
  line += "):";
  if (mbps.empty()) return line + " (empty)";
  for (const double q : {0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95}) {
    const double v = quantile(mbps, q);
    char buf[64];
    std::snprintf(buf, sizeof buf, " p%02d=%.4g", static_cast<int>(std::lround(q * 100)), v);
    line += buf;
  }
  return line;
}

std::string render_figure(const std::string& name, const dataset::StudyDataset& ds) {
  std::ostringstream out;
  analysis::render_figure(out, name, ds);
  return out.str();
}

std::string render_experiment(const std::string& name, const dataset::StudyDataset& ds) {
  std::ostringstream out;
  analysis::render_experiment(out, name, ds);
  return out.str();
}

/// The scorecard without its obs.* rows, which report live process
/// counters rather than the dataset.
std::string scorecard_without_obs(const dataset::StudyDataset& ds) {
  std::ostringstream out;
  analysis::render_scorecard(out, ds, false);
  std::istringstream in{out.str()};
  std::string kept;
  for (std::string line; std::getline(in, line);) {
    if (line.find("] obs.") == std::string::npos) kept += line + "\n";
  }
  return kept;
}

void check_analyze(const dataset::StudyDataset& fresh, const dataset::StudyDataset& decoded,
                   Checks& checks) {
  dataset::StudyDataset probe = decoded;
  if (checks.altered("analyze.fig1_oracle")) probe.dasu.pop_back();
  const std::string fig1 = render_figure("fig1", decoded);
  const std::string expected = fig1_capacity_line(probe);
  checks.expect("analyze.fig1_oracle", fig1.substr(0, fig1.find('\n')) == expected,
                "fig1 printed '" + fig1.substr(0, fig1.find('\n')) + "', oracle '" +
                    expected + "'");

  if (checks.altered("analyze.tab1_pairs")) probe.upgrades.pop_back();
  const auto upgrades = static_cast<std::size_t>(
      std::count_if(probe.upgrades.begin(), probe.upgrades.end(),
                    [](const dataset::UpgradeObservation& u) { return u.is_upgrade(); }));
  const std::string tab1 = render_experiment("tab1", decoded);
  const auto colon = tab1.find(": ");
  const std::size_t printed =
      colon == std::string::npos ? 0 : std::strtoull(tab1.c_str() + colon + 2, nullptr, 10);
  checks.expect("analyze.tab1_pairs", printed == upgrades,
                "tab1 printed " + std::to_string(printed) + " pairs, dataset holds " +
                    std::to_string(upgrades) + " upgrades");

  dataset::StudyDataset other = decoded;
  if (checks.altered("analyze.render_equal")) other.dasu.pop_back();
  std::size_t differ = 0;
  for (const auto& name : analysis::figure_names()) {
    differ += render_figure(name, fresh) != render_figure(name, other);
  }
  for (const auto& name : analysis::experiment_names()) {
    differ += render_experiment(name, fresh) != render_experiment(name, other);
  }
  differ += scorecard_without_obs(fresh) != scorecard_without_obs(other);
  checks.expect("analyze.render_equal", differ == 0,
                std::to_string(differ) + " renders differ between the in-memory and "
                                         "the decoded dataset");
}

}  // namespace

StageResult run_analyze(const Options& options, double seconds, Tracer& tracer,
                        Checks& checks, Metrics& metrics) {
  const auto config = study_config(kStudySeed, kPoolWorkers);
  // Set-up: what a `--cache` user waits for once: simulate the study and
  // store its snapshot in the artifact cache.
  const store::ArtifactCache cache{options.work / "cache"};
  const auto key = store::dataset_fingerprint(config, market::World::builtin());
  const dataset::StudyDataset fresh =
      dataset::StudyGenerator{market::World::builtin(), config}.generate();
  cache.store(key, fresh);

  Ledger ledger;
  const auto pass = [&] {
    const Tracer::Scope op{tracer, "analyze.pass"};
    std::optional<dataset::StudyDataset> ds;
    ledger["store.decode_ms"].push_back(
        timed(tracer, "store.decode", [&] { ds = cache.load(key); }));
    if (!ds) throw IoError{"artifact cache lost entry " + key.hex()};
    ds->config.threads = config.threads;  // as the CLI does on a hit
    std::ostringstream out;
    for (const auto& name : analysis::figure_names()) {
      const std::string span = "analysis." + name;
      ledger[span + "_ms"].push_back(timed(
          tracer, span.c_str(), [&] { analysis::render_figure(out, name, *ds); }));
    }
    for (const auto& name : analysis::experiment_names()) {
      const std::string span = "analysis." + name;
      ledger[span + "_ms"].push_back(timed(
          tracer, span.c_str(), [&] { analysis::render_experiment(out, name, *ds); }));
    }
    ledger["analysis.scorecard_ms"].push_back(timed(
        tracer, "analysis.scorecard", [&] { analysis::render_scorecard(out, *ds, false); }));
    return std::move(*ds);
  };

  dataset::StudyDataset decoded = pass();  // warm-up
  ledger.clear();
  const double setup_s = seconds_since_start();
  const char* const work_counters[] = {"stats.radix_sorts", "stats.ecdf_queries",
                                       "stats.binomial_tests"};
  std::vector<double> counters_before;
  for (const char* c : work_counters) counters_before.push_back(obs_counter(c));

  std::vector<double> op_ms;
  const auto until = Clock::now() + std::chrono::duration<double>{seconds};
  do {
    const auto t0 = Clock::now();
    decoded = pass();
    op_ms.push_back(ms_since(t0));
  } while (Clock::now() < until);
  const double peak_rss_mb = Usage::now().max_rss_mb;
  print_ops("analyze", op_ms);

  const double ops = static_cast<double>(op_ms.size());
  const double renders =
      static_cast<double>(analysis::figure_names().size() + analysis::experiment_names().size() + 1);
  if (tracer.enabled()) {
    metrics.set("trace.analyze.op_ms", typical_op(op_ms), "ms");
    for (const auto& [name, values] : ledger) metrics.set(name, median(values), unit_of(name));
    for (std::size_t i = 0; i < counters_before.size(); ++i) {
      metrics.set(work_counters[i], (obs_counter(work_counters[i]) - counters_before[i]) / ops,
                  "count");
    }
  } else {
    metrics.set("setup_s", setup_s, "s");
    metrics.set("op_ms", typical_op(op_ms), "ms");
    metrics.set("items_per_s", renders / (typical_op(op_ms) / 1e3), "1/s");
    metrics.set("peak_rss_mb", peak_rss_mb, "MB");
  }

  check_analyze(fresh, decoded, checks);
  return StageResult{op_ms.size(), 0};
}

}  // namespace perfbench
