// Drives a P3QSystem through a scenario timeline and reports what happened.
//
// The runner owns the whole experiment: it generates the synthetic trace,
// builds the system, then walks the timeline cycle by cycle — firing events,
// tracking the duty cycle by departing/rejoining users, issuing the query
// workload — and closes every phase with a structured PhaseReport: traffic
// deltas per MessageType (Metrics::Since), recall/coverage sampled against
// the centralized baseline, liveness churn totals and wall-clock throughput.
// Reports serialize to JSON/CSV via report.h. Everything except the wall
// clock is deterministic in (scenario, options): two runs with the same
// seed produce identical reports.
#ifndef P3Q_SCENARIO_RUNNER_H_
#define P3Q_SCENARIO_RUNNER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/profiler.h"
#include "obs/trace.h"
#include "profile/similarity.h"
#include "scenario/scenario.h"
#include "sim/delivery.h"
#include "sim/metrics.h"

namespace p3q {

/// Scale and protocol knobs for one scenario run.
struct ScenarioRunnerOptions {
  /// Population size of the generated delicious-like trace.
  int users = 400;
  /// Master seed: trace, system and workload randomness all derive from it.
  std::uint64_t seed = 1;
  /// Multiplies every phase's cycle budget (each phase keeps >= 1 cycle);
  /// lets smoke tests run full timelines in milliseconds.
  double cycle_scale = 1.0;
  /// Personal network size s; <= 0 means max(10, users / 10).
  int network_size = 0;
  /// Stored profiles per user (clamped to the network size).
  int stored_profiles = 10;
  /// Remaining-list split parameter.
  double alpha = 0.5;
  /// Top-k size.
  int top_k = 10;
  /// Personal-network distance (the --similarity CLI flag lands here). The
  /// success-ratio baseline uses the same metric, so scenarios stay
  /// comparable across metrics.
  SimilarityMetric similarity = SimilarityMetric::kCommonActions;
  /// Worker threads for the engine's parallel plan phases; 0 inherits the
  /// P3Q_THREADS environment default (1). Reports are byte-identical for
  /// every value; only the timing block (opt-in) differs.
  int threads = 0;
  /// When set, overrides the scenario's own latency model (the --latency /
  /// --loss CLI flags land here).
  std::optional<LatencySpec> latency;
  /// When set, overrides the scenario's open-loop arrival process on every
  /// eager/mixed phase (the --arrival-rate / --arrival-sweep CLI flags land
  /// here) — the saturation-sweep knob.
  std::optional<ArrivalSpec> arrivals;
  /// Optional deterministic event tracer (obs/trace.h): attached to the
  /// system for the whole run; the runner additionally emits node
  /// departed/rejoined and dumps the flight-recorder ring when the timeline
  /// throws. Observation-only — the report stays byte-identical.
  Tracer* tracer = nullptr;
  /// Optional wall-clock phase profiler (obs/profiler.h). Observation-only.
  PhaseProfiler* profiler = nullptr;
  /// When > 0, prints a stderr heartbeat every this many timeline cycles
  /// (cycle, open queries, messages in flight). Never touches stdout.
  std::uint64_t progress_every = 0;
  /// When set, snapshot the full run state to `checkpoint_path` at the top
  /// of this timeline cycle — before that cycle's events fire — and then
  /// continue to completion (sim/checkpoint.h). Must lie inside the scaled
  /// timeline and requires `checkpoint_path`; a run whose timeline ends
  /// early (a stop target met) before reaching it throws.
  std::optional<std::uint64_t> checkpoint_at;
  std::string checkpoint_path;
  /// When non-empty, restore the run from this snapshot and replay only the
  /// remaining timeline. The scenario and every result-affecting option
  /// must match the values the snapshot was written with (threads, tracer,
  /// profiler and progress_every may differ); the final report is
  /// byte-identical to the straight-through run's.
  std::string resume_path;
};

/// Identity of a checkpoint: the scenario and result-affecting options it
/// was written with. Lets a CLI reconstruct a matching run from the file
/// alone (p3q_sim --resume=FILE).
struct CheckpointRunInfo {
  std::string scenario;
  int users = 0;
  std::uint64_t seed = 0;
  double cycle_scale = 1.0;
  int network_size = 0;
  int stored_profiles = 0;
  double alpha = 0.5;
  int top_k = 0;
  SimilarityMetric similarity = SimilarityMetric::kCommonActions;
  /// The EFFECTIVE latency model of the run (scenario's own or the CLI
  /// override) — set it as the options override when resuming.
  LatencySpec latency;
  /// The run's arrival-process override, when one was set.
  std::optional<ArrivalSpec> arrivals;
};

/// Reads a checkpoint's identity header (validating magic/version/CRC).
/// Throws CheckpointError on any problem.
CheckpointRunInfo ReadScenarioCheckpointInfo(const std::string& path);

/// Wall-clock throughput of a phase (the only thread-count-dependent part
/// of a report; serialization excludes it unless asked, so reports from
/// equal seeds are byte-identical across thread counts by default).
struct PhaseTiming {
  double wall_seconds = 0;
  double cycles_per_sec = 0;
  double user_cycles_per_sec = 0;  ///< cycles/sec × online users (work rate)
  /// Open-loop goodput (wall clock): completions / completions within the
  /// SLO per second; 0 when the run serves no open-loop queries.
  double queries_per_sec = 0;
  double slo_queries_per_sec = 0;
  int threads = 1;                 ///< plan-phase worker threads of the run
};

/// End-of-run memory footprint (P3QSystem::MemoryStats rollup plus the
/// process peak RSS). Serialized only with the opt-in timing block:
/// peak_rss_mb is process-wide wall-clock territory, and keeping the whole
/// block there leaves default reports byte-identical across builds.
struct MemoryReport {
  /// Slab-arena footprint summed over the profile store's shards.
  std::uint64_t arena_reserved_bytes = 0;
  std::uint64_t arena_used_bytes = 0;
  std::uint64_t arena_slabs = 0;
  std::uint64_t arena_live_blocks = 0;
  std::uint64_t arena_recycled_slabs = 0;
  /// Snapshot-pool dedup counters (checkpoint restores reuse live
  /// snapshots instead of rebuilding them).
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  /// Probe-memo tables, personal-network storage and random views, summed
  /// over all nodes, and the in-flight message peak (SystemMemoryStats).
  std::uint64_t probe_memo_bytes = 0;
  std::uint64_t personal_network_bytes = 0;
  std::uint64_t random_view_bytes = 0;
  std::uint64_t peak_in_flight_messages = 0;
  /// The process's peak RSS at the end of the run, in MiB: VmHWM on
  /// Linux, getrusage's ru_maxrss elsewhere (0 where unavailable).
  double peak_rss_mb = 0;
  /// The allocator's heap at the end of the run (glibc mallinfo2; 0
  /// elsewhere): bytes held from the system (arena + hblkhd) and bytes in
  /// live allocations (uordblks + hblkhd). Observation only.
  std::uint64_t heap_held_bytes = 0;
  std::uint64_t heap_in_use_bytes = 0;
};

/// Everything measured over one phase.
struct PhaseReport {
  std::string name;
  std::string mode;
  /// Cycles actually run: the scaled budget, or fewer when the phase met
  /// its stop_at_success_ratio target. Events scheduled later in the phase
  /// did not fire.
  std::uint64_t cycles = 0;
  std::size_t online_at_end = 0;
  std::size_t departures = 0;  ///< users taken offline during the phase
  std::size_t rejoins = 0;     ///< users brought back during the phase
  int queries_issued = 0;
  int queries_completed = 0;
  /// Mean recall@k vs the centralized reference over the phase's queries,
  /// sampled at the phase boundary; -1 when the phase issued no queries.
  double avg_recall = -1;
  /// Mean fraction of the querier's personal network reached by gossip.
  double avg_coverage = 0;
  /// Convergence vs the ideal networks at the phase end (Figure 2 metric).
  double success_ratio = 0;
  /// Traffic of this phase only, per MessageType.
  Metrics traffic;
  /// Delivery-layer counters of this phase only (zero under ZeroLatency
  /// lag-wise: everything delivers with lag 0).
  DeliveryStats delivery;
  /// Messages still in flight when the phase ended.
  std::size_t in_flight_at_end = 0;
  /// Open-loop serving workload of this phase: the effective arrival spec's
  /// name ("" when the phase served none) and the latency stats delta.
  /// Queries in flight at the phase boundary stay tracked into the next
  /// phase (their completion lands in that phase's delta).
  std::string arrivals;
  QueryLatencyStats query_latency;
  std::size_t open_queries_at_end = 0;
  PhaseTiming timing;
  /// Trace rollup: events accepted during this phase, by kind (all zero
  /// when the run was not traced). Serialized only with the opt-in timing
  /// block AND a traced run, so default reports stay byte-stable.
  Tracer::KindCounts trace_events{};
  /// Per-engine wall-clock phase breakdown of this phase (empty when the
  /// run was not profiled). Same opt-in serialization gate.
  std::map<std::string, PhaseBreakdown> profile;
};

/// The structured output of one scenario run.
struct ScenarioReport {
  std::string scenario;
  std::string description;
  std::uint64_t seed = 0;
  std::size_t users = 0;
  int network_size = 0;
  int stored_profiles = 0;
  int top_k = 0;
  double alpha = 0;
  /// The latency model the run used (scenario's own, or the CLI override).
  /// Reports serialize a delivery block only when this is non-zero, so
  /// ZeroLatency output stays byte-identical to the synchronous engine's.
  LatencySpec latency;
  std::vector<PhaseReport> phases;

  std::uint64_t total_cycles = 0;
  std::size_t total_departures = 0;
  std::size_t total_rejoins = 0;
  int total_queries_issued = 0;
  int total_queries_completed = 0;
  Metrics total_traffic;
  DeliveryStats total_delivery;
  /// True when any phase ran an open-loop arrival process; reports
  /// serialize query-latency blocks only then, so closed-loop output stays
  /// byte-identical to pre-serving builds.
  bool open_loop = false;
  /// Completion-latency SLO the run used (cycles; the effective arrival
  /// spec's slo_cycles) — the "within SLO" threshold of the goodput fields.
  std::uint64_t slo_cycles = 0;
  /// Whole-run serving stats; unlike the per-phase deltas this includes the
  /// queries still open at the end of the timeline (counted as abandoned).
  QueryLatencyStats total_query_latency;
  PhaseTiming total_timing;
  /// True when the run had a tracer / profiler attached; gates the trace
  /// rollup / profile blocks of the serialized report.
  bool traced = false;
  bool profiled = false;
  /// Whole-run trace rollup (includes end-of-run abandon events, which land
  /// after the last phase's delta closes).
  Tracer::KindCounts total_trace_events{};
  std::map<std::string, PhaseBreakdown> total_profile;
  /// End-of-run memory footprint (opt-in timing block only).
  MemoryReport memory;
};

/// Runs the scenario at the given scale. Throws std::invalid_argument when
/// the scenario fails Validate(), the options are out of range, or the
/// timeline ends before the checkpoint_at cycle.
ScenarioReport RunScenario(const Scenario& scenario,
                           const ScenarioRunnerOptions& options);

}  // namespace p3q

#endif  // P3Q_SCENARIO_RUNNER_H_
