// Crash-safe checkpointed study runs.
//
// A full panel simulation is minutes of work; a power cut at minute
// nine should not cost the first eight. run_checkpointed() runs the
// generator's own shard driver (StudyGenerator::generate, one shard per
// country-year cross-section) with dataset::ShardHooks that persist every
// completed shard as an atomically-published .bbs segment under a
// checkpoint directory and record each publication in a manifest.
// Killed at ANY instruction and restarted with resume=true, it
// re-simulates only the unfinished shards and merges to a dataset
// byte-identical to an uninterrupted run — the shard decomposition is
// exact (the thread-count determinism guarantee, extended across
// process boundaries).
//
// Layout under `dir`:
//
//   MANIFEST                    commit log (see below)
//   shards/shard-00042.bbs      one published shard segment
//   shards/*.tmp                residue of a killed writer (ignored)
//
// The manifest is a text file, rewritten atomically after each shard
// publication:
//
//   bblab-checkpoint v1
//   fingerprint <32 hex>                  run key: dataset_fingerprint
//   shards <total>
//   commit <seq> <index> <file> <filehash> <linehash>
//
// Every commit line carries a monotonically increasing sequence number,
// the shard segment's content hash, and a self-checksum of the line; a
// torn manifest rewrite is detected line-by-line and the valid prefix
// salvaged. A shard file present on disk but missing from the manifest
// (killed between segment rename and manifest rewrite) is salvaged when
// its embedded config fingerprints to the run key and its checksums
// verify — the segment is self-certifying, the manifest is an index.
//
// Failure handling per shard: transient I/O errors retry with jittered
// exponential backoff (opts.retry); a shard that exhausts retries, or
// overruns opts.shard_deadline_s (watchdog-reported even if it never
// returns), is quarantined into the dataset's QC ledger (kIoFailure /
// kDeadlineExceeded, index = shard index) and the run completes
// degraded with the remaining shards — partial data with an honest
// ledger beats no data.
#pragma once

#include <cstddef>
#include <filesystem>

#include "core/fs.h"
#include "core/retry.h"
#include "dataset/generator.h"
#include "market/country.h"

namespace bblab::store {

struct CheckpointOptions {
  /// Checkpoint directory (created if absent).
  std::filesystem::path dir;
  /// Reuse shards already published under `dir` by a previous run with
  /// the same fingerprint. Off, a stale checkpoint is cleared instead.
  bool resume{false};
  /// Per-shard watchdog deadline in seconds; <= 0 disables.
  double shard_deadline_s{0.0};
  /// Backoff schedule for transient I/O during shard publication.
  core::RetryPolicy retry{};
  /// Filesystem to publish through (null = FileSystem::instance(), the
  /// process-wide injection point).
  core::FileSystem* fs{nullptr};
};

struct CheckpointedRun {
  dataset::StudyDataset dataset;
  std::size_t shards_total{0};
  std::size_t shards_reused{0};    ///< loaded from the checkpoint, not simulated
  std::size_t shards_failed{0};    ///< quarantined (I/O or deadline)

  /// True when any shard was lost: the dataset is partial (its QC ledger
  /// says exactly what is missing) and must not enter the artifact cache.
  [[nodiscard]] bool degraded() const { return shards_failed > 0; }
};

/// Simulate (config, world) through the checkpoint protocol above.
/// Deterministic: an undegraded run's dataset is byte-identical to
/// StudyGenerator::generate() at any thread count, resumed or not.
[[nodiscard]] CheckpointedRun run_checkpointed(const market::World& world,
                                               const dataset::StudyConfig& config,
                                               const CheckpointOptions& opts);

}  // namespace bblab::store
