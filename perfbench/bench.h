// Shared pieces of the pipeline benchmark: options, metrics, output
// checks, in-memory span tracing and process resource readings.
//
// The benchmark measures each layer from outside, by timing calls into
// the library's public functions; nothing here reaches into the
// library's internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "dataset/generator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>{b - a}.count();
}
[[nodiscard]] inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

/// Median (mean of the two middle values for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);
/// R type-7 quantile of `values` (unsorted), q in [0, 1]; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// The time of a typical operation of a whole-operation workload
/// (generate, analyze): the first quartile of its per-operation times.
/// On a shared host, memory-bound code runs in fast and slow phases
/// lasting seconds (other tenants' load); the median of a run flips
/// between the two modes when the slow share nears one half, while the
/// first quartile stays in the fast mode until it passes three quarters.
[[nodiscard]] double typical_op(const std::vector<double>& op_ms);

/// Print a stage's per-operation times to stderr, for diagnosis.
void print_ops(const char* stage, const std::vector<double>& op_ms);

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Name of an output check whose input is deliberately altered (the
  /// self-test proves each check can fail); empty for a normal run.
  std::string alter;
  /// Scratch directory for snapshots, caches and the daemon socket,
  /// relative to the working directory.
  std::filesystem::path work;
};

/// Named metrics with units, printed as the result's "metrics" object.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Output checks computed apart from the program. A failed check fails
/// the run; `alter` names one check whose input gets perturbed.
class Checks {
 public:
  explicit Checks(std::string alter) : alter_{std::move(alter)} {}

  /// Whether `name`'s input should be deliberately altered. Also records
  /// `name` as a known check so an unknown --alter is caught.
  [[nodiscard]] bool altered(const std::string& name);
  /// Record the outcome of check `name`; `detail` explains a failure.
  void expect(const std::string& name, bool ok, const std::string& detail = {});

  [[nodiscard]] bool all_passed() const { return failures_ == 0; }
  /// False when --alter named a check that never ran.
  [[nodiscard]] bool alter_used() const;

 private:
  std::string alter_;
  std::vector<std::string> seen_;
  std::size_t failures_{0};
};

/// In-memory span recorder. Spans carry (name, start, end, parent); they
/// are written out once, at the end of the run. When disabled, a scope
/// costs one branch and no clock read.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
    int parent{-1};
    int thread{0};  ///< 0 = the driver's thread
  };

  /// A tracer records the spans of one thread. Threads that run beside
  /// the driver get their own tracer, absorbed at the end.
  explicit Tracer(bool enabled, int thread = 0) : enabled_{enabled}, thread_{thread} {}

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_{-1};
  };

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Per name: inclusive and self time in ms (self = duration minus the
  /// part covered by child spans), and the number of spans.
  struct Totals {
    double inclusive_ms{0.0};
    double self_ms{0.0};
    std::size_t count{0};
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Append another thread's spans (the other tracer must be closed).
  void absorb(const Tracer& other);

  /// Write every span and the per-name totals as JSON.
  void write(const std::filesystem::path& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  int thread_;
  std::vector<Span> spans_;
  int open_{-1};  ///< innermost open span (the recording thread's)
};

/// Per-operation values of a traced stage, one entry per timed operation.
using Ledger = std::map<std::string, std::vector<double>>;

/// Run `fn` inside a span named `name`; returns its wall time in ms.
template <typename Fn>
double timed(Tracer& tracer, const char* name, Fn&& fn) {
  const Tracer::Scope scope{tracer, name};
  const auto t0 = Clock::now();
  fn();
  return ms_since(t0);
}

/// Unit of a per-layer metric, from its name's suffix.
[[nodiscard]] std::string unit_of(const std::string& name);

/// Process resource use from getrusage(RUSAGE_SELF).
struct Usage {
  double cpu_s{0.0};
  double minor_faults{0.0};
  double vol_ctx_switches{0.0};
  double max_rss_mb{0.0};

  [[nodiscard]] static Usage now();
};

/// One counter of the library's obs registry (0 if never registered).
[[nodiscard]] double obs_counter(const std::string& name);

/// Pool workers for every packing run. parallel_for lets the calling
/// thread help drain, so 2 workers compute on 3 threads, which fits a
/// 4-core host with a core to spare.
inline constexpr std::size_t kPoolWorkers = 2;

/// Study seed of every packed dataset: the CLI's default. Study seeds
/// are fixed so every run simulates and analyzes the same work; the
/// benchmark seed drives the serve query order and the traced household
/// sample.
inline constexpr std::uint64_t kStudySeed = 2014;

/// The study `bblab pack` makes with its defaults (scale 0.1, 1-day
/// observation windows) at study seed `seed`.
[[nodiscard]] bblab::dataset::StudyConfig study_config(std::uint64_t seed,
                                                      std::size_t threads);

/// Simulate `config` and write its snapshot to `path`: the `bblab pack`
/// path. Returns the dataset.
bblab::dataset::StudyDataset pack(const bblab::dataset::StudyConfig& config,
                                  const std::filesystem::path& path);

/// Whole file contents.
[[nodiscard]] std::string read_file(const std::filesystem::path& path);

/// What a workload stage reports back to the driver.
struct StageResult {
  std::size_t attempted{0};
  std::size_t failed{0};
};

/// Seconds since the process started measuring (main()'s first line).
[[nodiscard]] double seconds_since_start();

// The workload stages. Each times its operation until `seconds` have
// passed, checks the outputs, and fills `metrics`. With a tracer
// enabled they also record spans and per-layer metrics.
StageResult run_generate(const Options& options, double seconds, Tracer& tracer,
                         Checks& checks, Metrics& metrics);
StageResult run_analyze(const Options& options, double seconds, Tracer& tracer,
                        Checks& checks, Metrics& metrics);
StageResult run_serve(const Options& options, double seconds, Tracer& tracer,
                      Checks& checks, Metrics& metrics);

}  // namespace perfbench
