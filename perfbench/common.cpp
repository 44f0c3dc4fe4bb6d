#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.h"
#include "market/country.h"
#include "obs/metrics.h"
#include "store/bbs.h"

namespace perfbench {

namespace {
/// Span timestamps of every tracer count from one origin.
const Clock::time_point g_trace_origin = Clock::now();
}  // namespace

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double h = static_cast<double>(values.size() - 1) * q;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double typical_op(const std::vector<double>& op_ms) { return quantile(op_ms, 0.25); }

void print_ops(const char* stage, const std::vector<double>& op_ms) {
  std::cerr << "perfbench: " << stage << " op_ms:";
  for (const double ms : op_ms) std::cerr << " " << std::lround(ms);
  std::cerr << "\n";
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  values_[name] = {value, unit};
}

std::string Metrics::json() const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, entry] : values_) {
    char number[64];
    // %.17g keeps every digit the measurement has.
    std::snprintf(number, sizeof number, "%.17g",
                  std::isfinite(entry.first) ? entry.first : 0.0);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << number
        << ", \"unit\": \"" << entry.second << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

bool Checks::altered(const std::string& name) {
  seen_.push_back(name);
  return name == alter_;
}

void Checks::expect(const std::string& name, bool ok, const std::string& detail) {
  if (std::find(seen_.begin(), seen_.end(), name) == seen_.end()) seen_.push_back(name);
  if (ok) return;
  ++failures_;
  std::cerr << "perfbench: check failed: " << name
            << (detail.empty() ? "" : ": " + detail) << "\n";
}

bool Checks::alter_used() const {
  return alter_.empty() || std::find(seen_.begin(), seen_.end(), alter_) != seen_.end();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) : tracer_{&tracer} {
  if (!tracer.enabled_) return;
  index_ = static_cast<int>(tracer.spans_.size());
  tracer.spans_.push_back({name, tracer.now_ns(), 0, tracer.open_, tracer.thread_});
  tracer.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.end_ns = tracer_->now_ns();
  tracer_->open_ = span.parent;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_trace_origin)
      .count();
}

void Tracer::absorb(const Tracer& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  // A span's children come from its own thread and nest properly, so the
  // part of a span covered by children is the sum of its direct children.
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double ns = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    auto& t = out[spans_[i].name];
    t.inclusive_ms += ns / 1e6;
    t.self_ms += (ns - child_ns[i]) / 1e6;
    ++t.count;
  }
  return out;
}

void Tracer::write(const std::filesystem::path& path) const {
  std::ofstream out{path};
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"thread\": " << s.thread << "}";
  }
  out << "],\n\"totals\": {";
  bool first = true;
  for (const auto& [name, t] : totals()) {
    out << (first ? "\n" : ",\n") << "\"" << name << "\": {\"count\": " << t.count
        << ", \"inclusive_ms\": " << t.inclusive_ms << ", \"self_ms\": " << t.self_ms
        << "}";
    first = false;
  }
  out << "}}\n";
}

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  Usage u;
  u.cpu_s = secs(ru.ru_utime) + secs(ru.ru_stime);
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  u.vol_ctx_switches = static_cast<double>(ru.ru_nvcsw);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
  return u;
}

double obs_counter(const std::string& name) {
  // Read through a snapshot: looking a counter up by name would register
  // it, and the scorecard's obs rows count registered counters.
  const auto counters = bblab::obs::Registry::instance().snapshot().counters;
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : static_cast<double>(it->second);
}

std::string unit_of(const std::string& name) {
  if (name.ends_with("_ms")) return "ms";
  if (name.ends_with("_us")) return "us";
  if (name.ends_with("_s")) return "s";
  if (name.ends_with("_share")) return "ratio";
  if (name.ends_with("_bytes")) return "bytes";
  return "count";
}

bblab::dataset::StudyConfig study_config(std::uint64_t seed, std::size_t threads) {
  bblab::dataset::StudyConfig config;
  config.seed = seed;
  config.threads = threads;
  config.population_scale = 0.1;
  config.window_days = 1.0;
  return config;
}

bblab::dataset::StudyDataset pack(const bblab::dataset::StudyConfig& config,
                                  const std::filesystem::path& path) {
  auto ds =
      bblab::dataset::StudyGenerator{bblab::market::World::builtin(), config}.generate();
  bblab::store::write_snapshot_file(path, ds);
  return ds;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace perfbench
