// The `serve` workload: an in-process serve::Server with 2 query workers
// over 3 scale-0.1 snapshots of distinct study seeds. The LRU budget holds 2
// of the 3, so a share of queries miss and decode. Load is a closed loop
// of 2 clients: each sends its next query when the previous reply
// arrives. Each client asks whole rounds: every (figure or experiment
// name, snapshot) pair once per round, in a seeded order, so the query
// mix is the same in every run and at every seed. The scorecard is left
// out: its obs.* rows report live process counters, so its bytes cannot
// be compared with a direct render.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <thread>

#include "analysis/render.h"
#include "bench.h"
#include "core/rng.h"
#include "core/watchdog.h"
#include "serve/client.h"
#include "serve/dataset_lru.h"
#include "serve/query.h"
#include "serve/server.h"
#include "store/bbs.h"

namespace perfbench {

using namespace bblab;

namespace {

constexpr std::size_t kSnapshots = 3;
constexpr std::size_t kClients = 2;
constexpr std::size_t kQueryWorkers = 2;

/// One query name: a figure or an experiment.
struct Name {
  serve::RequestKind kind;
  std::string name;
};

std::vector<Name> query_names() {
  std::vector<Name> names;
  for (const auto& n : analysis::figure_names()) names.push_back({serve::RequestKind::kFigure, n});
  for (const auto& n : analysis::experiment_names()) {
    names.push_back({serve::RequestKind::kExperiment, n});
  }
  return names;
}

/// What a client saw for one query.
struct Reply {
  std::size_t name{0};
  std::size_t snapshot{0};
  double sent_ms{0.0};  ///< since the timed phase began
  double latency_ms{0.0};
  bool ok{false};
};

/// Per client: its replies, and the first body seen per (name, snapshot)
/// with a count of later bodies that differed from it.
struct ClientLog {
  std::vector<Reply> replies;
  std::map<std::pair<std::size_t, std::size_t>, std::string> bodies;
  std::size_t unequal_bodies{0};
  std::uint64_t max_open_bytes{0};
  std::string error;
};

/// Owns the daemon thread: stops and joins it on every path out.
class Daemon {
 public:
  explicit Daemon(serve::ServerOptions options) : server_{std::move(options)} {
    server_.bind();
    thread_ = std::thread{[this] {
      try {
        server_.run();
      } catch (const std::exception& e) {
        std::cerr << "perfbench: daemon stopped: " << e.what() << "\n";
      }
    }};
  }
  ~Daemon() {
    server_.stop();
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] serve::Server& server() { return server_; }

 private:
  serve::Server server_;
  std::thread thread_;  ///< declared last: it uses the members above
};

}  // namespace

StageResult run_serve(const Options& options, double seconds, Tracer& tracer,
                      Checks& checks, Metrics& metrics) {
  // Set-up: pack the snapshots, start the daemon.
  std::vector<std::filesystem::path> snapshots;
  std::uint64_t total_bytes = 0;
  std::uint64_t min_bytes = UINT64_MAX;
  for (std::size_t i = 0; i < kSnapshots; ++i) {
    snapshots.push_back(options.work / ("serve-" + std::to_string(i) + ".bbs"));
    pack(study_config(kStudySeed + i, kPoolWorkers), snapshots.back());
    const auto bytes = std::filesystem::file_size(snapshots.back());
    total_bytes += bytes;
    min_bytes = std::min<std::uint64_t>(min_bytes, bytes);
  }
  // Any two snapshots fit, all three never do.
  const std::uint64_t budget = total_bytes - min_bytes / 2;
  serve::ServerOptions sopts;
  sopts.socket = options.work / "serve.sock";
  sopts.threads = kQueryWorkers;
  sopts.max_open_bytes = budget;
  sopts.install_signals = false;
  Daemon daemon{sopts};
  auto& lru = daemon.server().lru();
  const auto names = query_names();

  // Warm-up: a ping, then one query per snapshot, which fills the LRU.
  std::uint64_t snapshot_queries = 0;
  serve::Response pong;
  {
    serve::Client client{sopts.socket};
    pong = checks.altered("serve.ping") ? client.call({serve::RequestKind::kInfo, "", ""})
                                        : client.ping();
    for (const auto& path : snapshots) {
      const auto r = client.call({names[0].kind, names[0].name, path.string()});
      ++snapshot_queries;
      if (r.status != serve::Status::kOk) throw IoError{"warm-up query failed: " + r.body};
    }
  }
  const double setup_s = seconds_since_start();
  const auto lru_before = lru.stats();

  // Timed: a closed loop of kClients clients.
  std::vector<ClientLog> logs(kClients);
  std::vector<Tracer> client_tracers;
  for (std::size_t c = 0; c < kClients; ++c) {
    client_tracers.emplace_back(tracer.enabled(), static_cast<int>(c + 1));
  }
  const auto start = Clock::now();
  const auto until = start + std::chrono::duration<double>{seconds};
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        auto& log = logs[c];
        try {
          serve::Client client{sopts.socket};
          Rng rng = Rng{options.seed}.fork(20 + c);
          std::vector<std::pair<std::size_t, std::size_t>> round;
          for (std::size_t n = 0; n < names.size(); ++n) {
            for (std::size_t s = 0; s < kSnapshots; ++s) round.emplace_back(n, s);
          }
          do {
            // One round asks every (name, snapshot) pair once, in a seeded
            // order, so every run's query mix is the same.
            std::shuffle(round.begin(), round.end(), rng);
            for (const auto& [name, snapshot] : round) {
              Reply reply;
              reply.name = name;
              reply.snapshot = snapshot;
              const serve::Request request{names[name].kind, names[name].name,
                                           snapshots[snapshot].string()};
              const auto t0 = Clock::now();
              reply.sent_ms = ms_between(start, t0);
              serve::Response response;
              {
                const Tracer::Scope span{client_tracers[c], "serve.query"};
                response = client.call(request);
              }
              reply.latency_ms = ms_since(t0);
              reply.ok = response.status == serve::Status::kOk;
              log.replies.push_back(reply);
              const auto [it, fresh] = log.bodies.try_emplace({name, snapshot}, response.body);
              if (!fresh && it->second != response.body) ++log.unequal_bodies;
              log.max_open_bytes = std::max(log.max_open_bytes, lru.stats().open_bytes);
            }
          } while (Clock::now() < until);
        } catch (const std::exception& e) {
          log.error = e.what();
        }
      });
    }
  }
  const double elapsed_s = ms_since(start) / 1e3;
  const auto lru_after = lru.stats();
  const double peak_rss_mb = Usage::now().max_rss_mb;
  for (const auto& t : client_tracers) tracer.absorb(t);

  std::vector<Reply> replies;
  std::size_t failed = 0;
  std::size_t unequal = 0;
  std::uint64_t max_open_bytes = lru_before.open_bytes;
  std::map<std::pair<std::size_t, std::size_t>, std::string> bodies;
  for (auto& log : logs) {
    if (!log.error.empty()) throw IoError{"serve client failed: " + log.error};
    for (const auto& r : log.replies) failed += !r.ok;
    replies.insert(replies.end(), log.replies.begin(), log.replies.end());
    unequal += log.unequal_bodies;
    max_open_bytes = std::max(max_open_bytes, log.max_open_bytes);
    for (auto& [key, body] : log.bodies) {
      const auto [it, fresh] = bodies.try_emplace(key, body);
      if (!fresh && it->second != body) ++unequal;
    }
  }
  snapshot_queries += replies.size();
  std::sort(replies.begin(), replies.end(),
            [](const Reply& a, const Reply& b) { return a.sent_ms < b.sent_ms; });
  std::vector<double> latency;
  for (const auto& r : replies) latency.push_back(r.latency_ms);
  const double qps = static_cast<double>(replies.size()) / elapsed_s;
  // The p99 is a reference figure, not a metric: the tail of a run rests
  // on a few dozen queries.
  std::cerr << "perfbench: serve latency p99 " << quantile(latency, 0.99) << " ms over "
            << latency.size() << " queries\n";

  if (tracer.enabled()) {
    metrics.set("trace.serve.op_ms", median(latency), "ms");
    metrics.set("trace.serve.items_per_s", qps, "queries/s");
    metrics.set("serve.lru_hits", static_cast<double>(lru_after.hits - lru_before.hits), "count");
    metrics.set("serve.lru_misses", static_cast<double>(lru_after.misses - lru_before.misses),
                "count");
    metrics.set("serve.lru_evictions",
                static_cast<double>(lru_after.evictions - lru_before.evictions), "count");

    // The same request sequence, executed directly on an LRU of the same
    // budget, and the same requests through the wire encoding alone.
    serve::DatasetLru replay_lru{budget};
    const core::Deadline no_deadline{};
    std::vector<double> execute_ms, miss_ms, wait_ms, protocol_us, response_bytes;
    std::size_t protocol_errors = 0;
    for (const auto& r : replies) {
      const serve::Request request{names[r.name].kind, names[r.name].name,
                                   snapshots[r.snapshot].string()};
      const auto misses = replay_lru.stats().misses;
      serve::Response response;
      const double ms = timed(tracer, "serve.execute", [&] {
        response = serve::execute(request, replay_lru, no_deadline);
      });
      execute_ms.push_back(ms);
      if (replay_lru.stats().misses > misses) miss_ms.push_back(ms);
      wait_ms.push_back(r.latency_ms - ms);
      std::string resp_frame;
      serve::Request request_back;
      serve::Response response_back;
      protocol_us.push_back(1e3 * timed(tracer, "serve.protocol", [&] {
        const std::string req_frame = serve::encode_request(request);
        request_back = serve::decode_request(std::string_view{req_frame}.substr(4));
        resp_frame = serve::encode_response(response);
        response_back = serve::decode_response(std::string_view{resp_frame}.substr(4));
      }));
      protocol_errors += request_back.name != request.name || response_back.body != response.body;
      response_bytes.push_back(static_cast<double>(resp_frame.size()));
    }
    if (protocol_errors > 0) throw IoError{"protocol round trip changed a message"};
    metrics.set("serve.execute_ms", median(execute_ms), "ms");
    metrics.set("serve.lru_miss_ms", median(miss_ms), "ms");
    metrics.set("serve.queue_wait_ms", median(wait_ms), "ms");
    metrics.set("serve.protocol_us", median(protocol_us), "us");
    double bytes = 0.0;
    for (const double b : response_bytes) bytes += b;
    metrics.set("serve.response_bytes", bytes / static_cast<double>(response_bytes.size()),
                "bytes");
  } else {
    metrics.set("setup_s", setup_s, "s");
    metrics.set("op_ms", median(latency), "ms");
    metrics.set("items_per_s", qps, "1/s");
    metrics.set("peak_rss_mb", peak_rss_mb, "MB");
  }

  // Checks, against renders made here straight from each snapshot.
  checks.expect("serve.ping", pong.status == serve::Status::kOk && pong.body == "pong",
                "ping answered '" + pong.body + "'");
  std::size_t wrong = 0;
  for (std::size_t s = 0; s < kSnapshots; ++s) {
    const auto ds = store::read_snapshot_file(snapshots[s]);
    for (std::size_t n = 0; n < names.size(); ++n) {
      const auto it = bodies.find({n, s});
      if (it == bodies.end()) continue;
      std::ostringstream direct;
      if (names[n].kind == serve::RequestKind::kFigure) {
        analysis::render_figure(direct, names[n].name, ds);
      } else {
        analysis::render_experiment(direct, names[n].name, ds);
      }
      std::string expected = direct.str();
      if (n == 0 && s == 0 && checks.altered("serve.reply_bytes")) expected += "\n";
      wrong += it->second != expected;
    }
  }
  checks.expect("serve.reply_bytes", failed == 0 && unequal == 0 && wrong == 0,
                std::to_string(failed) + " replies not ok, " + std::to_string(unequal) +
                    " unequal repeats, " + std::to_string(wrong) +
                    " differ from a direct render");
  const std::uint64_t counted =
      snapshot_queries + (checks.altered("serve.lru_accounting") ? 1 : 0);
  checks.expect("serve.lru_accounting", lru_after.hits + lru_after.misses == counted,
                "daemon LRU saw " + std::to_string(lru_after.hits + lru_after.misses) +
                    " lookups, clients sent " + std::to_string(counted) +
                    " snapshot queries");
  const std::uint64_t limit = checks.altered("serve.open_bytes_budget") ? budget / 2 : budget;
  checks.expect("serve.open_bytes_budget", max_open_bytes <= limit,
                std::to_string(max_open_bytes) + " open bytes over the " +
                    std::to_string(limit) + "-byte budget");
  return StageResult{replies.size(), failed};
}

}  // namespace perfbench
