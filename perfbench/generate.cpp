// The `generate` workload: the `bblab pack` path at scale 0.1 —
// StudyGenerator::generate(), then store::write_snapshot_file.
//
// Untraced, each operation is exactly that pair of calls. Traced, the
// operation runs generate()'s steps through their public entry points
// (build_markets, plan_shards, simulate_shard, merge_shard_output) and
// write_snapshot_file's two steps (encode, publish), so each layer gets
// its own span. A fixed seeded sample of households is then timed
// through simulate_household and the component calls it makes.
#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "behavior/archetype.h"
#include "behavior/caps.h"
#include "behavior/demand.h"
#include "bench.h"
#include "core/fs.h"
#include "core/thread_pool.h"
#include "market/country.h"
#include "measurement/collectors.h"
#include "measurement/pipeline.h"
#include "netsim/diurnal.h"
#include "netsim/fluid.h"
#include "store/bbs.h"

namespace perfbench {

using namespace bblab;

namespace {

/// generate() + write_snapshot_file, one public call per span.
dataset::StudyDataset traced_pack(const dataset::StudyGenerator& gen,
                                  const dataset::StudyConfig& config,
                                  const std::filesystem::path& path, Tracer& tracer,
                                  Ledger& ledger) {
  const Tracer::Scope op{tracer, "generate.pack"};
  dataset::StudyDataset ds;
  ds.config = config;
  std::vector<dataset::ShardSpec> plan;
  ledger["market.build_markets_ms"].push_back(timed(
      tracer, "market.build_markets", [&] { ds.markets = gen.build_markets(); }));
  ledger["dataset.plan_shards_ms"].push_back(
      timed(tracer, "dataset.plan_shards", [&] { plan = gen.plan_shards(ds.markets); }));

  const char* const pool_counters[] = {"pool.tasks_executed", "pool.tasks_stolen"};
  double pool_before[2] = {obs_counter(pool_counters[0]), obs_counter(pool_counters[1])};
  std::vector<double> shard_ms;
  double merge_ms = 0.0;
  const Usage u0 = Usage::now();
  const double shards_ms = timed(tracer, "dataset.shards", [&] {
    core::ThreadPool pool{config.threads};
    for (const auto& spec : plan) {
      dataset::ShardOutput out;
      shard_ms.push_back(timed(tracer, "dataset.simulate_shard", [&] {
        out = gen.simulate_shard(spec, ds.markets, pool);
      }));
      merge_ms += timed(tracer, "dataset.merge",
                        [&] { dataset::merge_shard_output(ds, spec, std::move(out)); });
    }
  });
  const Usage u1 = Usage::now();
  ledger["dataset.shards_ms"].push_back(shards_ms);
  ledger["dataset.shard_p50_ms"].push_back(median(shard_ms));
  ledger["dataset.shard_max_ms"].push_back(
      *std::max_element(shard_ms.begin(), shard_ms.end()));
  ledger["dataset.merge_ms"].push_back(merge_ms);
  // The caller help-drains parallel_for, so threads + 1 threads compute.
  ledger["core.pool_busy_share"].push_back(
      (u1.cpu_s - u0.cpu_s) /
      (shards_ms / 1e3 * static_cast<double>(config.threads + 1)));
  ledger["core.pool_tasks"].push_back(obs_counter(pool_counters[0]) - pool_before[0]);
  ledger["core.pool_steals"].push_back(obs_counter(pool_counters[1]) - pool_before[1]);

  std::ostringstream buffer{std::ios::binary};
  ledger["store.encode_ms"].push_back(
      timed(tracer, "store.encode", [&] { store::write_snapshot(buffer, ds); }));
  ledger["store.publish_ms"].push_back(timed(tracer, "store.publish", [&] {
    auto& fs = core::FileSystem::instance();
    const auto tmp = std::filesystem::path{path.string() + ".tmp"};
    fs.write_file(tmp, buffer.view());
    fs.rename(tmp, path);
  }));
  ledger["store.snapshot_bytes"].push_back(static_cast<double>(buffer.view().size()));
  return ds;
}

/// A household's provisioned line on `plan`. The generator's make_link
/// is file-local, so its draw is repeated here, draw for draw: a
/// per-technology sync factor on the advertised rates, then wireline or
/// wireless/satellite RTT and loss.
netsim::AccessLink provisioned_link(const market::CountryProfile& country,
                                    const market::ServicePlan& plan, Rng& rng) {
  using market::AccessTech;
  double sync = 1.0;
  switch (plan.tech) {
    case AccessTech::kDsl: sync = rng.uniform(0.65, 1.0); break;
    case AccessTech::kCable: sync = rng.uniform(0.85, 1.05); break;
    case AccessTech::kFiber: sync = rng.uniform(0.95, 1.02); break;
    case AccessTech::kFixedWireless: sync = rng.uniform(0.5, 1.0); break;
    case AccessTech::kSatellite: sync = rng.uniform(0.5, 1.0); break;
  }
  netsim::AccessLink link;
  link.down = plan.download * sync;
  link.up = plan.upload * std::min(1.0, sync * rng.uniform(0.95, 1.1));
  const bool wireless = plan.tech == AccessTech::kFixedWireless ||
                        plan.tech == AccessTech::kSatellite ||
                        rng.bernoulli(country.wireless_share * 0.8);
  if (wireless) {
    const bool satellite = rng.bernoulli(0.25);
    const double base = satellite ? 650.0 : country.base_rtt_ms * 2.2;
    link.rtt_ms = rng.lognormal(std::log(base), 0.35);
    link.loss = std::min(
        0.3, rng.lognormal(std::log(std::max(0.004, country.base_loss * 4.0)), 0.9));
  } else {
    link.rtt_ms = rng.lognormal(std::log(country.base_rtt_ms), country.rtt_log_sigma);
    link.loss =
        std::min(0.3, rng.lognormal(std::log(country.base_loss), country.loss_log_sigma));
  }
  link.rtt_ms = std::clamp(link.rtt_ms, 3.0, 3000.0);
  return link;
}

/// A fixed seeded sample of Dasu household tasks drawn the way
/// simulate_shard draws them: a study year (and its need growth), an
/// archetype, a household that picks a plan, the plan's provisioned
/// line, workload knobs with their noise and phase, the plan's cap
/// throttle, and a day-aligned window inside the year.
std::vector<measurement::HouseholdTask> household_sample(
    const dataset::StudyConfig& config,
    const std::map<std::string, dataset::MarketSnapshot>& markets,
    const netsim::WorkloadGenerator& workload, const netsim::TcpModel& tcp, Rng rng,
    std::size_t n) {
  const behavior::DemandModel demand{};
  std::vector<const dataset::MarketSnapshot*> snaps;
  for (const auto& [code, snap] : markets) snaps.push_back(&snap);
  const int years = config.last_year - config.first_year + 1;
  std::vector<measurement::HouseholdTask> tasks;
  while (tasks.size() < n) {
    const auto& snap = *snaps[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(snaps.size()) - 1))];
    const auto& country = *snap.country;
    const auto yi = static_cast<int>(rng.uniform_int(0, years - 1));
    const double need_scale =
        std::pow(config.annual_need_growth,
                 static_cast<double>(yi) - static_cast<double>(years - 1) / 2.0);
    const auto archetype = behavior::ArchetypeMix::dasu().sample(rng);
    const auto household = market::sample_household(country, rng, need_scale);
    const auto plan = snap.choice.choose(household, snap.catalog);
    if (!plan) continue;
    behavior::SubscriberContext ctx;
    ctx.archetype = archetype;
    ctx.need_mbps = household.need_mbps;
    ctx.link = provisioned_link(country, *plan, rng);
    ctx.bt_user = behavior::traits_of(archetype).bt_sessions_per_day > 0.0;
    const double noise = std::exp(rng.normal(0.0, demand.params().intensity_log_sigma));
    const double phase = rng.normal(0.0, 1.5);
    measurement::HouseholdTask task;
    task.workload = demand.workload_params(ctx, noise, phase);
    if (plan->monthly_cap) {
      behavior::apply_cap(task.workload, ctx.link, *plan->monthly_cap,
                          workload.constants(), tcp);
    }
    task.link = ctx.link;
    const double max_day = kYear / kDay - config.window_days - 1.0;
    task.t0 = static_cast<double>(yi) * kYear + std::floor(rng.uniform(0.0, max_day)) * kDay;
    task.bins = static_cast<std::size_t>(std::round(config.window_days * kDay / config.dasu_bin_s));
    task.bin_width_s = config.dasu_bin_s;
    task.stream_id = tasks.size() + 1;
    tasks.push_back(task);
  }
  return tasks;
}

/// Time simulate_household, and separately the calls it makes, on the
/// sample; per-household microseconds, median over repetitions.
void time_households(const dataset::StudyConfig& config,
                     const std::map<std::string, dataset::MarketSnapshot>& markets,
                     const Rng& base, Tracer& tracer, Metrics& metrics) {
  const SimClock clock{config.first_year};
  const netsim::DiurnalModel diurnal{netsim::DiurnalParams{}, clock};
  const netsim::TcpModel tcp{};
  const netsim::WorkloadGenerator workload{diurnal, tcp};
  const measurement::DasuCollector dasu{measurement::DasuCollectorParams{}, diurnal};
  const measurement::GatewayCollector gateway{};
  measurement::PipelineToolkit kit;
  kit.workload = &workload;
  kit.dasu = &dasu;
  kit.gateway = &gateway;
  kit.tcp = tcp;
  const auto tasks = household_sample(config, markets, workload, tcp, base, 48);
  netsim::FluidWorkspace ws;

  constexpr int kReps = 3;
  Ledger per_rep;
  const Tracer::Scope scope{tracer, "measurement.household_sample"};
  for (int rep = 0; rep < kReps; ++rep) {
    double household = 0.0, gen = 0.0, fluid = 0.0, collect = 0.0, summarize = 0.0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const auto& task = tasks[i];
      Rng rng = base.fork(task.stream_id);
      household += timed(tracer, "measurement.simulate_household", [&] {
        static_cast<void>(measurement::simulate_household(kit, task, rng, &ws));
      });
      // The same household, one component call at a time.
      rng = base.fork(task.stream_id);
      const SimTime t1 =
          task.t0 + static_cast<double>(task.bins) * task.bin_width_s;
      std::vector<netsim::Flow> flows;
      gen += timed(tracer, "netsim.workload",
                   [&] { flows = workload.generate(task.workload, task.link, task.t0, t1, rng); });
      netsim::BinnedUsage truth;
      fluid += timed(tracer, "netsim.fluid", [&] {
        const netsim::FluidLinkSimulator sim{task.link, kit.tcp, kit.fluid};
        truth = sim.run(flows, task.t0, task.bins, task.bin_width_s, ws);
      });
      measurement::UsageSeries series;
      collect += timed(tracer, "measurement.collect", [&] {
        series = dasu.collect(truth, task.workload.phase_shift_hours, rng);
      });
      summarize += timed(tracer, "measurement.summarize",
                         [&] { static_cast<void>(measurement::summarize(series)); });
    }
    const double us_per = 1e3 / static_cast<double>(tasks.size());
    per_rep["measurement.household_us"].push_back(household * us_per);
    per_rep["netsim.workload_us"].push_back(gen * us_per);
    per_rep["netsim.fluid_us"].push_back(fluid * us_per);
    per_rep["measurement.collect_us"].push_back(collect * us_per);
    per_rep["measurement.summarize_us"].push_back(summarize * us_per);
  }
  for (const auto& [name, values] : per_rep) metrics.set(name, median(values), "us");
}

/// Output checks on the last pack, computed apart from the generator.
void check_generate(const dataset::StudyGenerator& gen, const dataset::StudyConfig& config,
                    const dataset::StudyDataset& ds, const std::filesystem::path& snapshot,
                    Checks& checks) {
  dataset::StudyDataset probe = ds;
  if (checks.altered("generate.record_count")) probe.dasu.pop_back();
  if (checks.altered("generate.unique_ids")) probe.dasu[1].user_id = probe.dasu[0].user_id;
  if (checks.altered("generate.p95_ceiling")) {
    probe.dasu[0].usage.peak_down = probe.dasu[0].plan_capacity * 1.2;
  }
  if (checks.altered("generate.upgrade_p95_ceiling")) {
    probe.upgrades[0].after.peak_down = probe.upgrades[0].new_capacity * 1.2;
  }

  std::size_t planned = 0;
  for (const auto& spec : gen.plan_shards(gen.build_markets())) planned += spec.n_users;
  const std::size_t records = probe.dasu.size() + probe.fcc.size();
  checks.expect("generate.record_count", records == planned,
                std::to_string(records) + " records, " + std::to_string(planned) +
                    " households planned");

  std::set<std::uint64_t> ids;
  std::size_t over = 0;
  for (const auto* records_of : {&probe.dasu, &probe.fcc}) {
    for (const auto& r : *records_of) {
      ids.insert(r.user_id);
      // The provisioned rate never exceeds the advertised plan rate by
      // more than make_link's sync factor allows (at most 1.05).
      if (r.usage.peak_down.bps() > 1.05 * r.plan_capacity.bps()) ++over;
    }
  }
  checks.expect("generate.unique_ids", ids.size() == records,
                std::to_string(records - ids.size()) + " duplicate user ids");
  checks.expect("generate.p95_ceiling", over == 0,
                std::to_string(over) + " households above 1.05x plan capacity");
  std::size_t upgrades_over = 0;
  for (const auto& u : probe.upgrades) {
    if (u.after.peak_down.bps() > 1.05 * u.new_capacity.bps()) ++upgrades_over;
  }
  checks.expect("generate.upgrade_p95_ceiling", upgrades_over == 0,
                std::to_string(upgrades_over) + " upgrades above 1.05x new capacity");

  // Thread-count invariance: the same study at 1 worker thread. The
  // snapshot's config section records the thread count it was made
  // with, so the reference carries the packed run's count; every other
  // byte must match.
  auto one_thread_config = config;
  one_thread_config.threads = 1;
  auto reference_ds =
      dataset::StudyGenerator{market::World::builtin(), one_thread_config}.generate();
  reference_ds.config.threads = config.threads;
  std::ostringstream one_thread{std::ios::binary};
  store::write_snapshot(one_thread, reference_ds);
  std::string reference = one_thread.str();
  if (checks.altered("generate.thread_invariance")) reference[reference.size() / 2] ^= 1;
  checks.expect("generate.thread_invariance", read_file(snapshot) == reference,
                "snapshot differs from the 1-thread snapshot");

  auto decoded = store::read_snapshot_file(snapshot);
  if (checks.altered("generate.roundtrip")) decoded.dasu[0].rtt_ms += 1.0;
  checks.expect("generate.roundtrip",
                store::content_hash(decoded) == store::content_hash(ds),
                "decoded snapshot hashes differently from the packed dataset");
}

}  // namespace

StageResult run_generate(const Options& options, double seconds, Tracer& tracer,
                         Checks& checks, Metrics& metrics) {
  const auto config = study_config(kStudySeed, kPoolWorkers);
  const auto snapshot = options.work / "generate.bbs";
  const dataset::StudyGenerator gen{market::World::builtin(), config};
  Ledger ledger;
  dataset::StudyDataset last;
  const auto one_pack = [&] {
    if (tracer.enabled()) {
      last = traced_pack(gen, config, snapshot, tracer, ledger);
    } else {
      last = pack(config, snapshot);
    }
  };

  // Warm-up: the first pack pays first-touch page faults and pool start.
  one_pack();
  ledger.clear();
  const double setup_s = seconds_since_start();
  const char* const work_counters[] = {"fluid.runs", "fluid.flows", "fluid.bins",
                                       "stats.radix_keys"};
  std::vector<double> counters_before;
  for (const char* c : work_counters) counters_before.push_back(obs_counter(c));
  const Usage u0 = Usage::now();

  std::vector<double> op_ms;
  const auto until = Clock::now() + std::chrono::duration<double>{seconds};
  do {
    const auto t0 = Clock::now();
    one_pack();
    op_ms.push_back(ms_since(t0));
  } while (Clock::now() < until);
  const Usage u1 = Usage::now();
  print_ops("generate", op_ms);

  double households = 0;
  for (const auto& spec : gen.plan_shards(gen.build_markets())) {
    households += static_cast<double>(spec.n_users);
  }
  const double ops = static_cast<double>(op_ms.size());
  const double per_s = households / (typical_op(op_ms) / 1e3);
  if (tracer.enabled()) {
    metrics.set("trace.generate.items_per_s", per_s, "households/s");
    for (const auto& [name, values] : ledger) {
      metrics.set(name, median(values), unit_of(name));
    }
    const char* const work_names[] = {"netsim.fluid_runs", "netsim.fluid_flows",
                                      "netsim.fluid_bins", "stats.radix_keys"};
    for (std::size_t i = 0; i < counters_before.size(); ++i) {
      metrics.set(work_names[i], (obs_counter(work_counters[i]) - counters_before[i]) / ops,
                  "count");
    }
    metrics.set("proc.minor_faults", (u1.minor_faults - u0.minor_faults) / ops, "count");
    metrics.set("proc.vol_ctx_switches", (u1.vol_ctx_switches - u0.vol_ctx_switches) / ops,
                "count");
    metrics.set("proc.cpu_s", (u1.cpu_s - u0.cpu_s) / ops, "s");
    time_households(config, last.markets, Rng{options.seed}.fork(100), tracer, metrics);
  } else {
    metrics.set("setup_s", setup_s, "s");
    metrics.set("op_ms", typical_op(op_ms), "ms");
    metrics.set("items_per_s", per_s, "1/s");
    metrics.set("peak_rss_mb", u1.max_rss_mb, "MB");
  }

  check_generate(gen, config, last, snapshot, checks);
  return StageResult{op_ms.size(), 0};
}

}  // namespace perfbench
