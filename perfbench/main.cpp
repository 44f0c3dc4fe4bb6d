// bblab_perfbench: the pipeline benchmark's driver.
//
//   bblab_perfbench --workload generate|analyze|serve --seed N --seconds S
//                   --trace 0|1 [--alter CHECK] [--work DIR]
//
// Untraced (--trace 0), it runs one workload and prints the end-to-end
// metrics. Traced (--trace 1), it runs the three stages in pipeline
// order (generate, analyze, serve), each for a third of --seconds, with
// a span around every public call it makes, and prints the per-layer
// metrics; the spans are written to DIR/trace-<workload>.json. Either
// way the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and a failed output check makes the run exit 1.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

const perfbench::Clock::time_point g_start = perfbench::Clock::now();

int usage() {
  std::cerr << "usage: bblab_perfbench --workload generate|analyze|serve --seed N "
               "--seconds S --trace 0|1 [--alter CHECK] [--work DIR]\n";
  return 2;
}

}  // namespace

double perfbench::seconds_since_start() { return ms_since(g_start) / 1e3; }

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  options.work = ".bench_build/work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--alter") {
      options.alter = value;
    } else if (arg == "--work") {
      options.work = value;
    } else {
      return usage();
    }
  }
  if (options.workload != "generate" && options.workload != "analyze" &&
      options.workload != "serve") {
    return usage();
  }
  if (!(options.seconds > 0.0)) return usage();

  const std::filesystem::path root = options.work;
  options.work = root / (options.workload + "-" + std::to_string(::getpid()));
  int rc = 1;
  try {
    std::filesystem::create_directories(options.work);
    Tracer tracer{options.trace};
    Checks checks{options.alter};
    Metrics metrics;
    StageResult result;
    const auto add = [&result](const StageResult& stage) {
      result.attempted += stage.attempted;
      result.failed += stage.failed;
    };
    if (!options.trace) {
      if (options.workload == "generate") {
        add(run_generate(options, options.seconds, tracer, checks, metrics));
      } else if (options.workload == "analyze") {
        add(run_analyze(options, options.seconds, tracer, checks, metrics));
      } else {
        add(run_serve(options, options.seconds, tracer, checks, metrics));
      }
    } else {
      const double third = options.seconds / 3.0;
      add(run_generate(options, third, tracer, checks, metrics));
      add(run_analyze(options, third, tracer, checks, metrics));
      add(run_serve(options, third, tracer, checks, metrics));
      tracer.write(root / ("trace-" + options.workload + ".json"));
      std::fprintf(stderr, "%-36s %8s %12s %12s\n", "span", "count", "incl_ms", "self_ms");
      for (const auto& [name, t] : tracer.totals()) {
        std::fprintf(stderr, "%-36s %8zu %12.3f %12.3f\n", name.c_str(), t.count,
                     t.inclusive_ms, t.self_ms);
      }
    }
    if (!checks.alter_used()) {
      std::cerr << "perfbench: --alter " << options.alter << " names no check of this run\n";
    }
    const bool correct = checks.all_passed() && checks.alter_used();
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
              << ", \"metrics\": " << metrics.json() << "}" << std::endl;
    rc = correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
  }
  std::error_code ec;
  std::filesystem::remove_all(options.work, ec);
  return rc;
}
