// Observability overhead benchmarks: the cost of the instruments
// themselves, and the end-to-end tax they put on the pipeline.
//
// The budget (DESIGN.md §10): with tracing disabled the whole subsystem
// must cost < 3% on the perf_pipeline workload — a disabled span is one
// relaxed load, a counter add is one relaxed fetch_add into a per-thread
// slot. BM_PipelineObsOverhead measures that tax directly and reports it
// as the `overhead_pct` counter (tracing on vs off over the identical
// workload), so a regression shows up as a number, not a vibe.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/thread_pool.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace {

using namespace bblab;

// --- instrument microcosts -------------------------------------------------

void BM_ObsCounterAdd(benchmark::State& state) {
  static obs::Counter& c = obs::Registry::instance().counter("bench.counter");
  for (auto _ : state) {
    c.add();
  }
  benchmark::DoNotOptimize(c.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramObserve(benchmark::State& state) {
  static obs::Histogram& h = obs::Registry::instance().histogram("bench.hist");
  double v = 0.0;
  for (auto _ : state) {
    h.observe(v);
    v += 0.37;
    if (v > 20000.0) v = 0.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserve);

// The production configuration: instrumented code running with tracing
// off. This is the per-span price every hot path pays by default.
void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::set_tracing(false);
  for (auto _ : state) {
    OBS_SPAN("bench_disabled");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::reset_spans_for_test();
  obs::set_tracing(true);
  for (auto _ : state) {
    OBS_SPAN("bench_enabled");
    benchmark::ClobberMemory();
  }
  obs::set_tracing(false);
  obs::reset_spans_for_test();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanEnabled);

// --- end-to-end pipeline tax -----------------------------------------------

/// Best-of-`reps` wall time for one full pass over the shard workload
/// with tracing in the given state. Best-of (not mean) rejects scheduler
/// noise, which on a shared CI box dwarfs the effect being measured.
double timed_pipeline_ms(const bench::ShardWorkload& workload, core::ThreadPool& pool,
                         bool tracing, int reps) {
  obs::set_tracing(tracing);
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    obs::reset_spans_for_test();
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(workload.run(pool));
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>{t1 - t0}.count());
  }
  obs::set_tracing(false);
  obs::reset_spans_for_test();
  return best;
}

void BM_PipelineObsOverhead(benchmark::State& state) {
  const bench::ShardWorkload workload;
  core::ThreadPool pool{static_cast<std::size_t>(state.range(0))};
  // Warm pools, caches and lazily-registered instruments off the clock.
  timed_pipeline_ms(workload, pool, false, 1);

  for (auto _ : state) {
    benchmark::DoNotOptimize(workload.run(pool));
  }

  const double off_ms = timed_pipeline_ms(workload, pool, false, 5);
  const double on_ms = timed_pipeline_ms(workload, pool, true, 5);
  state.counters["baseline_ms"] = off_ms;
  state.counters["traced_ms"] = on_ms;
  state.counters["overhead_pct"] = (on_ms - off_ms) / off_ms * 100.0;
  state.SetItemsProcessed(state.iterations() * workload.households());
}
BENCHMARK(BM_PipelineObsOverhead)->Arg(1)->Arg(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
