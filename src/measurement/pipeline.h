// Per-household simulation pipeline.
//
// The paper's datasets are tens of thousands of independent
// household-windows, each run through the same workload -> fluid-link ->
// collector chain. simulate_household runs one of them; the generator's
// shards (dataset::StudyGenerator::simulate_shard) fan households out
// across a core::ThreadPool and merge them back in user-id order, so the
// dataset is bit-identical regardless of thread count. Determinism comes
// from the RNG substream scheme: a household draws only from a substream
// forked by its stable id, never from a shared stream.
#pragma once

#include <cstdint>

#include "core/rng.h"
#include "faults/fault_plan.h"
#include "measurement/collectors.h"
#include "measurement/usage.h"
#include "netsim/fluid.h"
#include "netsim/workload.h"

namespace bblab::core {
class Hasher;
}

namespace bblab::measurement {

/// Version of the household-simulation semantics. The content-addressed
/// simulation cache mixes this into every fingerprint, so cached results
/// are invalidated whenever the simulated behavior changes even though
/// the configs hash equal. Bump it on ANY change that alters the output
/// of simulate_household for a fixed (toolkit, task, rng) — workload
/// generation, fluid dynamics, collector sampling, fault application.
/// v2: snapshots no longer record StudyConfig::threads.
inline constexpr std::uint32_t kPipelineSemanticsVersion = 2;

enum class CollectorKind {
  kDasu,     ///< 30 s end-host byte counters (availability-biased)
  kGateway,  ///< hourly WAN totals, around the clock
};

/// One household-window to simulate.
struct HouseholdTask {
  netsim::WorkloadParams workload;
  netsim::AccessLink link;
  SimTime t0{0.0};
  std::size_t bins{0};
  double bin_width_s{30.0};
  CollectorKind collector{CollectorKind::kDasu};
  /// Stable RNG substream id (e.g. the household's user id). Two tasks
  /// with the same id see identical randomness; scheduling never matters.
  std::uint64_t stream_id{0};
};

/// Feed every simulation-relevant field of a task into a fingerprint
/// hasher. Together with kPipelineSemanticsVersion and the RNG base this
/// addresses a household's simulated output.
void fingerprint(core::Hasher& hasher, const HouseholdTask& task);

struct HouseholdResult {
  netsim::BinnedUsage truth;  ///< simulator ground truth
  UsageSeries series;         ///< what the instrument observed
  UsageSummary summary;       ///< the per-user demand metrics
};

/// Shared read-only simulation components. All referenced objects must
/// outlive the calls and are used concurrently (their observe/generate
/// methods are const and state-free).
struct PipelineToolkit {
  const netsim::WorkloadGenerator* workload{nullptr};
  const DasuCollector* dasu{nullptr};
  const GatewayCollector* gateway{nullptr};
  /// Optional fault-injection plan; null or empty means clean data.
  const faults::FaultPlan* faults{nullptr};
  netsim::TcpModel tcp{};
  netsim::FluidOptions fluid{};
};

/// Damage an observed series per a materialized household fault schedule:
/// drop samples inside outage/blackout windows, zero the sample spanning
/// a counter reset, add a +2^32-byte spike to the sample spanning a
/// spurious wrap, and shift every timestamp by the clock skew.
void apply_faults(UsageSeries& series, const faults::HouseholdFaults& household);

/// Simulate one household end to end, drawing from `rng` in a fixed
/// order (workload generation first, then collector sampling). When the
/// toolkit carries a fault plan, the household's fault schedule is
/// materialized from (plan, task.stream_id) — independent of `rng`, so
/// faults never perturb the simulation's randomness — and applied to the
/// observed series; a household selected for hard failure throws
/// InjectedFault.
///
/// `workspace` is the fluid engine's reusable scratch state: the shard
/// driver passes one per worker block so every household-window after the
/// first runs with zero simulator allocations. Null falls back to a
/// per-call workspace (identical output, just slower).
[[nodiscard]] HouseholdResult simulate_household(const PipelineToolkit& kit,
                                                 const HouseholdTask& task, Rng& rng,
                                                 netsim::FluidWorkspace* workspace =
                                                     nullptr);

}  // namespace bblab::measurement
