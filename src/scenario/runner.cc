#include "scenario/runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "baseline/centralized_topk.h"
#include "baseline/ideal_network.h"
#include "core/p3q_system.h"
#include "dataset/generator.h"
#include "dataset/query_gen.h"
#include "eval/metrics_eval.h"
#include "eval/recall.h"
#include "serving/lifecycle.h"
#include "sim/checkpoint.h"

namespace p3q {
namespace {

/// A query in flight plus the centralized reference captured at issue time.
struct OpenQuery {
  std::uint64_t id = 0;
  std::vector<ItemId> reference;
};

/// Scales a phase-relative cycle offset so events keep their position when
/// the whole timeline is stretched or compressed.
std::uint64_t ScaleOffset(std::uint64_t at_cycle, double cycle_scale,
                          std::uint64_t scaled_cycles) {
  const auto scaled = static_cast<std::uint64_t>(
      static_cast<double>(at_cycle) * cycle_scale);
  return std::min(scaled, scaled_cycles - 1);
}

/// Process peak RSS in MiB (0 where neither source is available). Linux
/// reads VmHWM, this process's own high-water mark: ru_maxrss starts at
/// the parent's, which Linux carries across exec, so a run launched from a
/// harness never reads below the harness's RSS. Elsewhere getrusage:
/// macOS reports ru_maxrss in bytes, other systems in KiB.
double PeakRssMb() {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // "VmHWM:  12345 kB"
    }
  }
#endif
#if defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#elif defined(__unix__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#else
  return 0;
#endif
}

/// Fills the allocator's view of the heap (glibc's mallinfo2, summed over
/// its arenas; zero elsewhere): bytes held from the system, in the arenas
/// plus mmapped blocks, and the part of them handed out to live
/// allocations. Held minus in use is free memory the allocator keeps.
void ReadHeapStats(MemoryReport* memory) {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const struct mallinfo2 info = mallinfo2();
  memory->heap_held_bytes = info.arena + info.hblkhd;
  memory->heap_in_use_bytes = info.uordblks + info.hblkhd;
#else
  (void)memory;
#endif
}

/// Issues one query from a uniformly random online user with a non-empty
/// profile, drawing from `rng`; returns nothing when no attempt produced a
/// usable query. Queries draw from the user's ORIGINAL (version-0) actions
/// — the paper generates the whole query workload from the initial trace —
/// which the store keeps reachable across updates (RetainOriginals).
std::optional<OpenQuery> IssueRandomQuery(P3QSystem* system,
                                          const std::vector<UserId>& online,
                                          Rng* rng) {
  if (online.empty()) return std::nullopt;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const UserId u = online[rng->NextUint64(online.size())];
    QuerySpec spec = GenerateQueryForUser(
        system->profile_store().OriginalActionsOf(u), u, rng);
    if (spec.tags.empty()) continue;
    OpenQuery q;
    q.reference = ReferenceTopK(*system, spec, system->config().top_k);
    q.id = system->IssueQuery(spec);
    return q;
  }
  return std::nullopt;
}

/// The arrival process a phase actually serves: the CLI override wins, then
/// the phase's own block, then the scenario default; lazy phases never
/// serve (no eager cycles run, so nothing could ever complete).
const ArrivalSpec& EffectiveArrivals(const Scenario& scenario,
                                     const ScenarioPhase& phase,
                                     const ScenarioRunnerOptions& options) {
  static const ArrivalSpec kNone;
  if (phase.mode == PhaseMode::kLazy) return kNone;
  if (options.arrivals.has_value()) return *options.arrivals;
  if (phase.arrivals.has_value()) return *phase.arrivals;
  return scenario.arrivals;
}

/// Phase cycle budget after applying --cycle-scale (every phase keeps >= 1).
std::uint64_t ScaledCycles(const ScenarioPhase& phase, double cycle_scale) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(
             static_cast<double>(phase.cycles) * cycle_scale)));
}

// -- Checkpoint layouts of the runner-owned structures -----------------------

template <class Io>
void Transfer(Io& io, Transferred<Io, LatencySpec>& spec) {
  auto kind = static_cast<std::uint32_t>(spec.kind);
  io.U32(kind);
  if (kind > static_cast<std::uint32_t>(LatencyKind::kLossy)) {
    throw CheckpointError("unknown latency model kind " + std::to_string(kind) +
                          " in checkpoint");
  }
  if constexpr (Io::kLoading) spec.kind = static_cast<LatencyKind>(kind);
  io.U64(spec.fixed);
  io.U64(spec.lo);
  io.U64(spec.hi);
  io.F64(spec.loss);
  io.U64(spec.max_delay);
  if constexpr (Io::kLoading) {
    if (const std::string problem = spec.Validate(); !problem.empty()) {
      throw CheckpointError("checkpoint latency model: " + problem);
    }
  }
}

template <class Io>
void Transfer(Io& io, Transferred<Io, ArrivalSpec>& spec) {
  auto kind = static_cast<std::uint32_t>(spec.kind);
  io.U32(kind);
  if (kind > static_cast<std::uint32_t>(ArrivalKind::kTrace)) {
    throw CheckpointError("unknown arrival-process kind " +
                          std::to_string(kind) + " in checkpoint");
  }
  if constexpr (Io::kLoading) spec.kind = static_cast<ArrivalKind>(kind);
  io.F64(spec.rate);
  io.Vector(spec.trace, 8, [&](auto& rate) { io.F64(rate); });
  io.U64(spec.slo_cycles);
  io.F64(spec.recall_target);
  if constexpr (Io::kLoading) {
    if (const std::string problem = spec.Validate(); !problem.empty()) {
      throw CheckpointError("checkpoint arrival process: " + problem);
    }
  }
}

/// A closed PhaseReport. The wall-clock timing block travels as F64 bit
/// patterns so a resumed report reproduces the straight run's opt-in timing
/// fields for already-finished phases; the per-engine profile breakdown
/// (pure wall clock, opt-in only) is intentionally dropped.
template <class Io>
void Transfer(Io& io, Transferred<Io, PhaseReport>& pr) {
  io.Str(pr.name);
  io.Str(pr.mode);
  io.U64(pr.cycles);
  io.U64(pr.online_at_end);
  io.U64(pr.departures);
  io.U64(pr.rejoins);
  io.I64(pr.queries_issued);
  io.I64(pr.queries_completed);
  io.F64(pr.avg_recall);
  io.F64(pr.avg_coverage);
  io.F64(pr.success_ratio);
  Transfer(io, pr.traffic);
  Transfer(io, pr.delivery);
  io.U64(pr.in_flight_at_end);
  io.Str(pr.arrivals);
  Transfer(io, pr.query_latency);
  io.U64(pr.open_queries_at_end);
  io.F64(pr.timing.wall_seconds);
  io.F64(pr.timing.cycles_per_sec);
  io.F64(pr.timing.user_cycles_per_sec);
  io.F64(pr.timing.queries_per_sec);
  io.F64(pr.timing.slo_queries_per_sec);
  io.I64(pr.timing.threads);
  Transfer(io, pr.trace_events);
}

/// The identity header: which scenario and run shape produced this
/// snapshot (threads/tracer/profiler excluded — they never change results).
/// `shape.latency` holds the run's effective latency model.
template <class Io>
void TransferRunHeader(Io& io, Transferred<Io, std::string>& scenario_name,
                       Transferred<Io, ScenarioRunnerOptions>& shape) {
  io.Str(scenario_name);
  io.I64(shape.users);
  io.U64(shape.seed);
  io.F64(shape.cycle_scale);
  io.I64(shape.network_size);
  io.I64(shape.stored_profiles);
  io.F64(shape.alpha);
  io.I64(shape.top_k);
  auto similarity = static_cast<std::uint32_t>(shape.similarity);
  io.U32(similarity);
  if (similarity > static_cast<std::uint32_t>(SimilarityMetric::kOverlap)) {
    throw CheckpointError("unknown similarity metric " +
                          std::to_string(similarity) + " in checkpoint");
  }
  bool has_arrivals = shape.arrivals.has_value();
  if constexpr (Io::kLoading) {
    shape.similarity = static_cast<SimilarityMetric>(similarity);
    shape.latency.emplace();
  }
  Transfer(io, *shape.latency);
  io.Bool(has_arrivals);
  if constexpr (Io::kLoading) {
    shape.arrivals.reset();
    if (has_arrivals) shape.arrivals.emplace();
  }
  if (has_arrivals) Transfer(io, *shape.arrivals);
  io.Sentinel("run header");
}

/// Throws a CheckpointError naming the first run-shape field the resuming
/// run sets differently from the snapshot's header (`saved_scenario` and
/// `saved`, as TransferRunHeader decoded them). `latency` is the resuming
/// run's effective model.
void VerifyResumeHeader(const std::string& saved_scenario,
                        const ScenarioRunnerOptions& saved,
                        const Scenario& scenario,
                        const ScenarioRunnerOptions& options,
                        const LatencySpec& latency) {
  const auto check = [](bool same, const std::string& what,
                        const std::string& was, const std::string& now) {
    if (same) return;
    throw CheckpointError("checkpoint was written with " + what + " = " + was +
                          " but this run uses " + now +
                          "; resume with matching options");
  };
  const auto arrivals_name = [](const std::optional<ArrivalSpec>& arrivals) {
    return arrivals.has_value() ? arrivals->Name() : std::string("none");
  };
  check(saved_scenario == scenario.name, "scenario", saved_scenario,
        scenario.name);
  check(saved.users == options.users, "users", std::to_string(saved.users),
        std::to_string(options.users));
  check(saved.seed == options.seed, "seed", std::to_string(saved.seed),
        std::to_string(options.seed));
  check(saved.cycle_scale == options.cycle_scale, "cycle_scale",
        std::to_string(saved.cycle_scale), std::to_string(options.cycle_scale));
  // Every size <= 0 means the same default (users / 10, at most 500).
  check(saved.network_size == options.network_size ||
            (saved.network_size <= 0 && options.network_size <= 0),
        "network_size",
        std::to_string(saved.network_size),
        std::to_string(options.network_size));
  check(saved.stored_profiles == options.stored_profiles, "stored_profiles",
        std::to_string(saved.stored_profiles),
        std::to_string(options.stored_profiles));
  check(saved.alpha == options.alpha, "alpha", std::to_string(saved.alpha),
        std::to_string(options.alpha));
  check(saved.top_k == options.top_k, "top_k", std::to_string(saved.top_k),
        std::to_string(options.top_k));
  check(saved.similarity == options.similarity, "similarity",
        SimilarityMetricName(saved.similarity),
        SimilarityMetricName(options.similarity));
  check(saved.latency->Name() == latency.Name(), "latency",
        saved.latency->Name(), latency.Name());
  check(saved.arrivals == options.arrivals, "arrivals",
        arrivals_name(saved.arrivals), arrivals_name(options.arrivals));
}

/// The runner's own state at the top of a timeline cycle: the report so
/// far, the timeline position, the workload streams, the serving lifecycle
/// and the open phase's counters and baselines. With the system it is the
/// whole run: a checkpoint's runner section is this struct, saved and
/// loaded by TransferRunnerState.
struct RunnerState {
  /// The closed phases, open_loop and slo_cycles travel in the section;
  /// the report's header fields come from the options.
  ScenarioReport report;
  /// The open phase is report.phases.size(); this is the cycle within it.
  std::uint64_t cycle = 0;
  /// Global timeline cycle, across phases.
  std::uint64_t serving_cycle = 0;
  /// Workload randomness (querier choice, duty sampling, update batches)
  /// and the open-loop querier choices: two streams forked off the master
  /// seed, so enabling the serving harness never perturbs the closed-loop
  /// workload (arrival counts have yet another, inside ArrivalProcess).
  Rng workload_rng;
  Rng serving_rng;
  /// Open-loop lifecycle, created at the first arrival phase, and the
  /// whole run's serving stats.
  std::optional<ServingTracker> tracker;
  QueryLatencyStats serving_stats;
  /// The open phase's open-loop arrival process (kNone when it serves
  /// none, and then it never arrives).
  ArrivalProcess arrivals{ArrivalSpec{}, 0};
  /// The open phase's report: its departures, rejoins and queries issued
  /// count up cycle by cycle; the rest is filled when the phase closes.
  PhaseReport phase;
  /// What the phase's deltas close against: the counters at its start.
  Metrics traffic_before;
  DeliveryStats delivery_before;
  QueryLatencyStats serving_before;
  Tracer::KindCounts trace_before{};
  /// Σ over the phase's cycles of online users (its work rate).
  double online_cycle_sum = 0;
  /// The phase's closed-loop queries, sampled and released at its end.
  std::vector<OpenQuery> open;
};

/// The runner section, with the trace cursor (the tracer's next sequence
/// number and counts) when the run is traced. A load checks it against the
/// run: the open phase and cycle must lie inside the scaled timeline, the
/// arrival state must match the phase's, and every open query id,
/// closed-loop or tracked, must name one of `system`'s live queries (the
/// system is already restored), and no phase baseline may exceed the
/// counters it closes against. A traced resume of a traced run continues
/// its trace cursor; an untraced snapshot's phase baseline is the resuming
/// tracer's counts. A load into `s` expects its report header set.
template <class Io>
void TransferRunnerState(Io& io, Transferred<Io, RunnerState>& s,
                         const P3QSystem& system, const Scenario& scenario,
                         const ScenarioRunnerOptions& options) {
  constexpr bool kLoading = Io::kLoading;
  io.Vector(s.report.phases, 64, [&](auto& done) { Transfer(io, done); });
  const std::size_t phase_index = s.report.phases.size();
  if (kLoading && phase_index >= scenario.phases.size()) {
    throw CheckpointError(
        "checkpoint resume position is past the end of the timeline");
  }
  const ScenarioPhase& phase = scenario.phases[phase_index];
  io.U64(s.cycle);
  if (kLoading && s.cycle >= ScaledCycles(phase, options.cycle_scale)) {
    throw CheckpointError("checkpoint resume position is past the phase end");
  }
  io.U64(s.serving_cycle);
  Transfer(io, s.workload_rng);
  Transfer(io, s.serving_rng);
  bool tracking = s.tracker.has_value();
  io.Bool(tracking);
  if constexpr (kLoading) {
    if (tracking) {
      s.tracker.emplace(0, 0.0);  // overwritten entirely by LoadState
      s.tracker->LoadState(&io, system);
    }
  } else if (tracking) {
    s.tracker->SaveState(&io);
  }
  io.Bool(s.report.open_loop);
  io.U64(s.report.slo_cycles);
  Transfer(io, s.serving_stats);
  const ArrivalSpec& arrivals = EffectiveArrivals(scenario, phase, options);
  bool serving = !s.arrivals.spec().IsNone();
  io.Bool(serving);
  if (kLoading && serving == arrivals.IsNone()) {
    throw CheckpointError(
        "checkpoint arrival-process state does not match the scenario's "
        "phase");
  }
  if constexpr (kLoading) {
    s.arrivals = ArrivalProcess(arrivals, options.seed + phase_index);
  }
  if (serving) Transfer(io, s.arrivals.rng());
  io.U64(s.phase.departures);
  io.U64(s.phase.rejoins);
  io.I64(s.phase.queries_issued);
  Transfer(io, s.traffic_before);
  Transfer(io, s.delivery_before);
  Transfer(io, s.serving_before);
  Tracer* tracer = options.tracer;
  bool traced = tracer != nullptr;
  io.Bool(traced);
  if (traced) {
    std::uint64_t next_seq = tracer != nullptr ? tracer->accepted() : 0;
    Tracer::KindCounts counts{};
    if (tracer != nullptr) counts = tracer->counts();
    io.U64(next_seq);
    Transfer(io, counts);
    Transfer(io, s.trace_before);
    // Continue the straight run's event numbering: the resumed JSONL is a
    // byte-suffix of the full trace.
    if (kLoading && tracer != nullptr) tracer->RestoreCursor(next_seq, counts);
  } else if constexpr (kLoading) {
    if (tracer != nullptr) s.trace_before = tracer->counts();
  }
  io.F64(s.online_cycle_sum);
  io.Vector(s.open, 16, [&](auto& query) {
    io.U64(query.id);
    if (kLoading && !system.HasQuery(query.id)) {
      throw CheckpointError("runner open query id " +
                            std::to_string(query.id) + " names no live query");
    }
    io.Vector(query.reference, 4, [&](auto& item) { io.U32(item); });
  });
  io.Sentinel("runner");
  if constexpr (kLoading) {
    // The phase's close subtracts each baseline from counters that only
    // grow, so no baseline may run ahead of the restored counters.
    if (!Precedes(s.traffic_before, system.network().metrics()) ||
        !Precedes(s.delivery_before, system.DeliveryStatsTotal()) ||
        !Precedes(s.serving_before, s.serving_stats) ||
        (tracer != nullptr && !Precedes(s.trace_before, tracer->counts()))) {
      throw CheckpointError(
          "checkpoint phase baselines run ahead of the restored counters");
    }
  }
}

/// Emits one node_departed / node_rejoined event per user at the timeline
/// cycle; no-op without a tracer.
void TraceLiveness(Tracer* tracer, TraceEventKind kind, std::uint64_t cycle,
                   const std::vector<UserId>& users) {
  if (tracer == nullptr) return;
  for (UserId u : users) {
    TraceEvent event;
    event.cycle = cycle;
    event.kind = kind;
    event.node = u;
    tracer->Emit(event);
  }
}

ScenarioReport RunScenarioTimeline(const Scenario& scenario,
                                   const ScenarioRunnerOptions& options) {
  if (const std::string problem = scenario.Validate(); !problem.empty()) {
    throw std::invalid_argument("scenario '" + scenario.name +
                                "': " + problem);
  }
  if (options.users < 1) {
    throw std::invalid_argument("ScenarioRunnerOptions: users must be >= 1");
  }
  if (!(options.cycle_scale > 0)) {
    throw std::invalid_argument(
        "ScenarioRunnerOptions: cycle_scale must be > 0");
  }
  if (options.threads < 0) {
    throw std::invalid_argument(
        "ScenarioRunnerOptions: threads must be >= 0 (0 = inherit)");
  }
  if (options.arrivals.has_value()) {
    if (const std::string problem = options.arrivals->Validate();
        !problem.empty()) {
      throw std::invalid_argument("ScenarioRunnerOptions: " + problem);
    }
  }

  P3QConfig config;
  // The paper's default s = users/10 is fine at experiment scale but would
  // mean 100k-entry personal networks at a million users; past the largest
  // golden scale the default saturates at 500 (users <= 5000 keep the
  // historical value exactly, so existing reports are unchanged).
  config.network_size = options.network_size > 0
                            ? options.network_size
                            : std::min(std::max(10, options.users / 10), 500);
  config.stored_profiles =
      std::min(options.stored_profiles, config.network_size);
  config.alpha = options.alpha;
  config.top_k = options.top_k;
  config.similarity = options.similarity;
  config.eager_gossip_budget = scenario.eager_gossip_budget;
  if (const std::string problem = config.Validate(); !problem.empty()) {
    throw std::invalid_argument("ScenarioRunnerOptions: " + problem);
  }

  // Stream the synthetic trace straight into the profile store, one user at
  // a time: each action vector is packed into an arena-backed snapshot and
  // dropped, so setup memory is O(one profile) beyond the store itself —
  // the trace is never materialized. The store keeps each updated user's
  // original actions aside (RetainOriginals) because the query workload and
  // update batches keep drawing against the initial trace.
  SyntheticTraceStream stream(SyntheticConfig::DeliciousLike(options.users),
                              options.seed);
  ProfileStore store;
  store.RetainOriginals(true);
  while (!stream.Done()) {
    const UserId u = stream.next_user();
    store.AddUser(u, stream.NextUserActions(), config.digest_bits);
  }

  P3QSystem system(std::move(store), config, /*per_user_storage=*/{},
                   options.seed);
  const ActionsView original_actions = [&system](UserId u) {
    return system.profile_store().OriginalActionsOf(u);
  };
  if (options.threads > 0) system.SetThreads(options.threads);
  // The CLI override wins over the scenario's own latency block; the
  // default is zero latency (byte-identical to the synchronous engine).
  const LatencySpec latency = options.latency.value_or(scenario.latency);
  system.SetLatency(latency);
  system.SetTracer(options.tracer);
  system.SetProfiler(options.profiler);
  const bool resuming = !options.resume_path.empty();
  // A resumed run restores every view/network/rng below, so the bootstrap
  // draws would be overwritten anyway — skip the work.
  if (!resuming) system.BootstrapRandomViews();
  RunnerState state;
  state.workload_rng =
      Rng(options.seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
  state.serving_rng =
      Rng(options.seed * 0x9e3779b97f4a7c15ULL + 0x8a5cd789635d2dffULL);

  ScenarioReport& report = state.report;
  report.scenario = scenario.name;
  report.description = scenario.description;
  report.seed = options.seed;
  report.users = stream.num_users();
  report.network_size = config.network_size;
  report.stored_profiles = config.stored_profiles;
  report.top_k = config.top_k;
  report.alpha = config.alpha;
  report.latency = latency;
  report.traced = options.tracer != nullptr;
  report.profiled = options.profiler != nullptr;

  // The success ratio against the ideal networks (Figure 2 metric), read at
  // every phase end and after every cycle of a phase with a stop target.
  // The ideal networks are recomputed only when an update storm changed the
  // profiles.
  IdealNetworks ideal;
  bool ideal_dirty = true;
  const auto success_ratio = [&] {
    if (ideal_dirty) {
      // The exact baseline is O(users^2) similarity scores; past experiment
      // scale the success ratio is estimated over a deterministic user
      // sample instead (non-sampled users keep empty ideal lists, which
      // AverageSuccessRatio skips). Scales <= the gate — every golden —
      // keep the exact computation.
      constexpr std::size_t kIdealExactLimit = 20000;
      constexpr std::size_t kIdealSampleSize = 512;
      ideal = system.NumUsers() > kIdealExactLimit
                  ? ComputeIdealNetworksSampled(
                        system.profile_store(), config.network_size,
                        kIdealSampleSize, options.seed, config.similarity)
                  : ComputeIdealNetworks(system.profile_store(),
                                         config.network_size,
                                         config.similarity);
      ideal_dirty = false;
    }
    return AverageSuccessRatio(system, ideal);
  };

  // Checkpoint/resume wiring. The checkpoint fires at the top of timeline
  // cycle K, before K's events — so a resumed run fires them exactly once.
  const bool want_checkpoint = options.checkpoint_at.has_value();
  if (want_checkpoint) {
    std::uint64_t total_scaled = 0;
    for (const ScenarioPhase& phase : scenario.phases) {
      total_scaled += ScaledCycles(phase, options.cycle_scale);
    }
    if (options.checkpoint_path.empty()) {
      throw std::invalid_argument(
          "ScenarioRunnerOptions: checkpoint_at requires checkpoint_path");
    }
    if (*options.checkpoint_at >= total_scaled) {
      throw std::invalid_argument(
          "ScenarioRunnerOptions: checkpoint_at " +
          std::to_string(*options.checkpoint_at) +
          " is past the scaled timeline (" + std::to_string(total_scaled) +
          " cycles)");
    }
  }
  bool checkpoint_written = false;

  if (resuming) {
    const std::vector<std::uint8_t> payload =
        ReadCheckpointPayload(options.resume_path);
    CheckpointReader in(payload.data(), payload.size());
    std::string saved_scenario;
    ScenarioRunnerOptions saved;
    TransferRunHeader(in, saved_scenario, saved);
    VerifyResumeHeader(saved_scenario, saved, scenario, options, latency);
    system.LoadCheckpoint(&in);
    TransferRunnerState(in, state, system, scenario, options);
    in.ExpectEnd();
    if (want_checkpoint && *options.checkpoint_at < state.serving_cycle) {
      throw std::invalid_argument(
          "ScenarioRunnerOptions: checkpoint_at " +
          std::to_string(*options.checkpoint_at) +
          " is before the resume position (" +
          std::to_string(state.serving_cycle) + ")");
    }
  }

  // A resumed run starts at the checkpoint's open phase, which keeps the
  // counters and baselines TransferRunnerState restored.
  bool resumed_phase = resuming;
  for (std::size_t phase_index = report.phases.size();
       phase_index < scenario.phases.size(); ++phase_index) {
    const ScenarioPhase& phase = scenario.phases[phase_index];
    const std::uint64_t cycles = ScaledCycles(phase, options.cycle_scale);
    const ArrivalSpec& phase_arrivals =
        EffectiveArrivals(scenario, phase, options);
    if (!phase_arrivals.IsNone() && !state.tracker.has_value()) {
      // The SLO/recall target of the run come from the first serving
      // phase; later phases may change the rate but not the target.
      state.tracker.emplace(phase_arrivals.slo_cycles,
                            phase_arrivals.recall_target);
      report.open_loop = true;
      report.slo_cycles = phase_arrivals.slo_cycles;
    }
    if (!resumed_phase) {
      // A fresh phase zeroes its counters and takes its baselines.
      state.cycle = 0;
      state.phase = PhaseReport{};
      state.arrivals =
          ArrivalProcess(phase_arrivals, options.seed + phase_index);
      state.traffic_before = system.metrics().Snapshot();
      state.delivery_before = system.DeliveryStatsTotal();
      state.serving_before = state.serving_stats;
      if (options.tracer != nullptr) {
        state.trace_before = options.tracer->counts();
      }
      state.online_cycle_sum = 0;
    }
    resumed_phase = false;
    PhaseReport& pr = state.phase;
    pr.name = phase.name;
    pr.mode = PhaseModeName(phase.mode);
    pr.cycles = cycles;
    if (!phase_arrivals.IsNone()) pr.arrivals = phase_arrivals.Name();
    std::map<std::string, PhaseBreakdown> profile_before;
    if (options.profiler != nullptr) {
      profile_before = options.profiler->Snapshot();
    }

    const auto wall_start = std::chrono::steady_clock::now();
    for (; state.cycle < cycles; ++state.cycle) {
      // 0. Checkpoint — taken at the top of the timeline cycle, BEFORE this
      // cycle's events fire, so the resumed run fires them exactly once.
      if (want_checkpoint && !checkpoint_written &&
          state.serving_cycle == *options.checkpoint_at) {
        ScenarioRunnerOptions shape = options;
        shape.latency = latency;
        // The runner's own sections are measured first, and SaveCheckpoint
        // measures the system's, so the payload is allocated once.
        CheckpointWriter own = CheckpointWriter::Measuring();
        TransferRunHeader(own, scenario.name, shape);
        TransferRunnerState(own, state, system, scenario, options);
        CheckpointWriter payload;
        payload.Reserve(own.size());
        TransferRunHeader(payload, scenario.name, shape);
        system.SaveCheckpoint(&payload);
        TransferRunnerState(payload, state, system, scenario, options);
        WriteCheckpointFile(options.checkpoint_path, payload);
        checkpoint_written = true;
      }

      // 1. Scheduled events.
      for (const ScenarioEvent& event : phase.events) {
        if (ScaleOffset(event.at_cycle, options.cycle_scale, cycles) !=
            state.cycle) {
          continue;
        }
        switch (event.kind) {
          case EventKind::kDeparture: {
            const std::vector<UserId> departed =
                system.FailRandomFraction(event.fraction);
            pr.departures += departed.size();
            TraceLiveness(options.tracer, TraceEventKind::kNodeDeparted,
                          state.serving_cycle, departed);
            break;
          }
          case EventKind::kRejoin: {
            const std::vector<UserId> rejoined =
                system.RejoinRandomFraction(event.fraction);
            pr.rejoins += rejoined.size();
            TraceLiveness(options.tracer, TraceEventKind::kNodeRejoined,
                          state.serving_cycle, rejoined);
            break;
          }
          case EventKind::kQueryBurst: {
            const std::vector<UserId> online = system.network().OnlineUsers();
            for (int i = 0; i < event.count; ++i) {
              if (auto q =
                      IssueRandomQuery(&system, online, &state.workload_rng)) {
                state.open.push_back(std::move(*q));
                ++pr.queries_issued;
              }
            }
            break;
          }
          case EventKind::kUpdateStorm: {
            const UpdateBatch batch = stream.MakeUpdateBatch(
                event.update, &state.workload_rng, original_actions);
            system.ApplyUpdateBatch(batch);
            ideal_dirty = true;
            break;
          }
        }
      }

      // 2. Duty-cycle liveness: depart/rejoin users to track the target
      // online fraction.
      if (phase.duty) {
        const double target =
            std::clamp(phase.duty(state.cycle, cycles), 0.0, 1.0);
        const auto target_online = static_cast<std::size_t>(std::llround(
            target * static_cast<double>(system.NumUsers())));
        const std::size_t current = system.network().NumOnline();
        if (current > target_online) {
          const std::vector<UserId> leaving =
              state.workload_rng.SampleWithoutReplacement(
                  system.network().OnlineUsers(), current - target_online);
          for (UserId u : leaving) system.FailUser(u);
          pr.departures += leaving.size();
          TraceLiveness(options.tracer, TraceEventKind::kNodeDeparted,
                        state.serving_cycle, leaving);
        } else if (current < target_online) {
          std::vector<UserId> back =
              state.workload_rng.SampleWithoutReplacement(
                  system.network().OfflineUsers(), target_online - current);
          std::sort(back.begin(), back.end());
          for (UserId u : back) system.RejoinUser(u);
          pr.rejoins += back.size();
          TraceLiveness(options.tracer, TraceEventKind::kNodeRejoined,
                        state.serving_cycle, back);
        }
      }

      // 3. Background query workload.
      if (phase.queries_per_cycle > 0) {
        const std::vector<UserId> online = system.network().OnlineUsers();
        for (int i = 0; i < phase.queries_per_cycle; ++i) {
          if (auto q = IssueRandomQuery(&system, online, &state.workload_rng)) {
            state.open.push_back(std::move(*q));
            ++pr.queries_issued;
          }
        }
      }

      // 4. Open-loop arrivals (the serving workload rides the same cycle as
      // the closed-loop background queries, but is tracked to completion).
      if (const int n = state.arrivals.ArrivalsAt(state.cycle); n > 0) {
        const std::vector<UserId> online = system.network().OnlineUsers();
        for (int i = 0; i < n; ++i) {
          if (auto q = IssueRandomQuery(&system, online, &state.serving_rng)) {
            state.tracker->Track(&system, q->id, state.serving_cycle,
                                 std::move(q->reference),
                                 &state.serving_stats);
          }
        }
      }

      // 5. Protocol cycles.
      state.online_cycle_sum +=
          static_cast<double>(system.network().NumOnline());
      switch (phase.mode) {
        case PhaseMode::kLazy:
          system.RunLazyCycles(1);
          break;
        case PhaseMode::kEager:
          system.RunEagerCycles(1);
          break;
        case PhaseMode::kMixed:
          system.RunLazyCycles(1);
          system.RunEagerCycles(1);
          break;
      }

      // 6. Serving lifecycle: poll open queries for first results and
      // completions (a query issued this cycle completing right after its
      // first eager cycle scores latency 1; latency 0 is issue-time-local
      // completion inside Track).
      ++state.serving_cycle;
      if (state.tracker.has_value() && state.tracker->open() > 0) {
        state.tracker->Poll(&system, state.serving_cycle,
                            &state.serving_stats);
      }

      // 7. Progress heartbeat (stderr only; stdout reports are sacred).
      if (options.progress_every > 0 &&
          state.serving_cycle % options.progress_every == 0) {
        std::fprintf(
            stderr,
            "p3q_sim: phase %s cycle %llu/%llu (timeline %llu), "
            "%zu queries open, %zu messages in flight\n",
            phase.name.c_str(),
            static_cast<unsigned long long>(state.cycle + 1),
            static_cast<unsigned long long>(cycles),
            static_cast<unsigned long long>(state.serving_cycle),
            state.tracker.has_value() ? state.tracker->open() : std::size_t{0},
            system.MessagesInFlight());
      }

      // 8. Stop condition: the phase ends as soon as the networks reach its
      // success-ratio target.
      if (phase.stop_at_success_ratio > 0 &&
          success_ratio() >= phase.stop_at_success_ratio) {
        pr.cycles = state.cycle + 1;
        break;
      }
    }
    const auto wall_end = std::chrono::steady_clock::now();

    // Phase boundary: sample every query issued during the phase against
    // its centralized reference, then release it.
    double recall_sum = 0, coverage_sum = 0;
    for (const OpenQuery& q : state.open) {
      const ActiveQuery& query = system.query(q.id);
      recall_sum += RecallAtK(query.CurrentTopKItems(), q.reference);
      coverage_sum +=
          query.expected_profiles() == 0
              ? 1.0
              : std::min(1.0, static_cast<double>(query.NumUsedProfiles()) /
                                  static_cast<double>(
                                      query.expected_profiles()));
      if (system.QueryComplete(q.id)) ++pr.queries_completed;
      system.ForgetQuery(q.id);
    }
    if (pr.queries_issued > 0) {
      pr.avg_recall = recall_sum / pr.queries_issued;
      pr.avg_coverage = coverage_sum / pr.queries_issued;
    }

    pr.success_ratio = success_ratio();
    pr.online_at_end = system.network().NumOnline();
    pr.traffic = system.metrics().Since(state.traffic_before);
    pr.delivery = system.DeliveryStatsTotal().Since(state.delivery_before);
    pr.in_flight_at_end = system.MessagesInFlight();
    pr.query_latency = state.serving_stats.Since(state.serving_before);
    pr.open_queries_at_end =
        state.tracker.has_value() ? state.tracker->open() : 0;
    if (options.tracer != nullptr) {
      pr.trace_events =
          CountersSince(options.tracer->counts(), state.trace_before);
    }
    if (options.profiler != nullptr) {
      for (const auto& [label, breakdown] : options.profiler->breakdowns()) {
        pr.profile[label] = breakdown.Since(profile_before[label]);
      }
    }

    pr.timing.wall_seconds =
        std::chrono::duration<double>(wall_end - wall_start).count();
    pr.timing.threads = system.threads();
    if (pr.timing.wall_seconds > 0) {
      pr.timing.cycles_per_sec =
          static_cast<double>(pr.cycles) / pr.timing.wall_seconds;
      pr.timing.user_cycles_per_sec =
          state.online_cycle_sum / pr.timing.wall_seconds;
      pr.timing.queries_per_sec =
          static_cast<double>(pr.query_latency.completed) /
          pr.timing.wall_seconds;
      pr.timing.slo_queries_per_sec =
          static_cast<double>(pr.query_latency.completed_within_slo) /
          pr.timing.wall_seconds;
    }
    report.phases.push_back(std::move(pr));
    state.open = std::vector<OpenQuery>();
  }
  // A phase that met its stop target shortens the timeline, which can skip
  // the checkpoint cycle; fail rather than silently write no snapshot.
  if (want_checkpoint && !checkpoint_written) {
    throw std::invalid_argument(
        "checkpoint_at " + std::to_string(*options.checkpoint_at) +
        " was never reached: the timeline ended at cycle " +
        std::to_string(state.serving_cycle));
  }

  // Queries still open when the timeline ends never completed: count them
  // as abandoned in the run totals (the per-phase deltas are already
  // closed, so no phase claims them as completions).
  if (state.tracker.has_value()) {
    state.tracker->Abandon(&system, state.serving_cycle, &state.serving_stats);
  }

  PhaseReport& totals = report.totals;
  totals.name = "total";
  totals.mode = "-";
  totals.arrivals = "-";
  const PhaseReport& last = report.phases.back();
  totals.online_at_end = last.online_at_end;
  totals.avg_recall = last.avg_recall;
  totals.avg_coverage = last.avg_coverage;
  totals.success_ratio = last.success_ratio;
  totals.in_flight_at_end = last.in_flight_at_end;
  double online_weighted = 0;
  for (const PhaseReport& pr : report.phases) {
    totals.cycles += pr.cycles;
    totals.departures += pr.departures;
    totals.rejoins += pr.rejoins;
    totals.queries_issued += pr.queries_issued;
    totals.queries_completed += pr.queries_completed;
    totals.timing.wall_seconds += pr.timing.wall_seconds;
    online_weighted += pr.timing.user_cycles_per_sec * pr.timing.wall_seconds;
  }
  totals.traffic = system.metrics().Snapshot();
  totals.delivery = system.DeliveryStatsTotal();
  totals.query_latency = state.serving_stats;
  // Whole-run rollups are read AFTER Abandon so end-of-run query_abandoned
  // events are included (they land past the last phase's delta).
  if (options.tracer != nullptr) {
    totals.trace_events = options.tracer->counts();
  }
  if (options.profiler != nullptr) {
    totals.profile = options.profiler->Snapshot();
  }
  report.memory.system = system.MemoryStats();
  report.memory.ideal_network_bytes = IdealNetworkBytes(ideal);
  report.memory.peak_rss_mb = PeakRssMb();
  ReadHeapStats(&report.memory);
  totals.timing.threads = system.threads();
  if (totals.timing.wall_seconds > 0) {
    totals.timing.cycles_per_sec =
        static_cast<double>(totals.cycles) / totals.timing.wall_seconds;
    totals.timing.user_cycles_per_sec =
        online_weighted / totals.timing.wall_seconds;
    totals.timing.queries_per_sec =
        static_cast<double>(totals.query_latency.completed) /
        totals.timing.wall_seconds;
    totals.timing.slo_queries_per_sec =
        static_cast<double>(totals.query_latency.completed_within_slo) /
        totals.timing.wall_seconds;
  }

  return std::move(state.report);
}

}  // namespace

std::string ReadScenarioCheckpointInfo(const std::string& path,
                                       ScenarioRunnerOptions* run_shape) {
  const std::vector<std::uint8_t> payload = ReadCheckpointPayload(path);
  CheckpointReader in(payload.data(), payload.size());
  std::string scenario;
  TransferRunHeader(in, scenario, *run_shape);
  return scenario;
}

ScenarioReport RunScenario(const Scenario& scenario,
                           const ScenarioRunnerOptions& options) {
  try {
    return RunScenarioTimeline(scenario, options);
  } catch (...) {
    // Flight recorder: when any part of the timeline throws, dump the last
    // N buffered events before propagating (idempotent — the engine may
    // already have dumped for an engine-level throw).
    if (options.tracer != nullptr) options.tracer->DumpRing();
    throw;
  }
}

}  // namespace p3q
