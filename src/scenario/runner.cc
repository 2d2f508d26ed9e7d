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

// -- Checkpoint codecs of the runner-owned structures ------------------------

void WriteLatencySpec(CheckpointWriter* out, const LatencySpec& spec) {
  out->U32(static_cast<std::uint32_t>(spec.kind));
  out->U64(spec.fixed);
  out->U64(spec.lo);
  out->U64(spec.hi);
  out->F64(spec.loss);
  out->U64(spec.max_delay);
}

LatencySpec ReadLatencySpec(CheckpointReader* in) {
  LatencySpec spec;
  const std::uint32_t kind = in->U32();
  if (kind > static_cast<std::uint32_t>(LatencyKind::kLossy)) {
    throw CheckpointError("unknown latency model kind " + std::to_string(kind) +
                          " in checkpoint");
  }
  spec.kind = static_cast<LatencyKind>(kind);
  spec.fixed = in->U64();
  spec.lo = in->U64();
  spec.hi = in->U64();
  spec.loss = in->F64();
  spec.max_delay = in->U64();
  return spec;
}

void WriteArrivalSpec(CheckpointWriter* out, const ArrivalSpec& spec) {
  out->U32(static_cast<std::uint32_t>(spec.kind));
  out->F64(spec.rate);
  out->U64(spec.trace.size());
  for (double r : spec.trace) out->F64(r);
  out->U64(spec.slo_cycles);
  out->F64(spec.recall_target);
}

ArrivalSpec ReadArrivalSpec(CheckpointReader* in) {
  ArrivalSpec spec;
  const std::uint32_t kind = in->U32();
  if (kind > static_cast<std::uint32_t>(ArrivalKind::kTrace)) {
    throw CheckpointError("unknown arrival-process kind " +
                          std::to_string(kind) + " in checkpoint");
  }
  spec.kind = static_cast<ArrivalKind>(kind);
  spec.rate = in->F64();
  const std::uint64_t num_rates = in->Count(8);
  spec.trace.reserve(static_cast<std::size_t>(num_rates));
  for (std::uint64_t r = 0; r < num_rates; ++r) spec.trace.push_back(in->F64());
  spec.slo_cycles = in->U64();
  spec.recall_target = in->F64();
  return spec;
}

bool SameArrivalSpec(const ArrivalSpec& a, const ArrivalSpec& b) {
  return a.kind == b.kind && a.rate == b.rate && a.trace == b.trace &&
         a.slo_cycles == b.slo_cycles && a.recall_target == b.recall_target;
}

void WriteKindCounts(CheckpointWriter* out, const Tracer::KindCounts& counts) {
  for (std::uint64_t c : counts) out->U64(c);
}

Tracer::KindCounts ReadKindCounts(CheckpointReader* in) {
  Tracer::KindCounts counts{};
  for (std::uint64_t& c : counts) c = in->U64();
  return counts;
}

/// Serializes a closed PhaseReport. The wall-clock timing block travels as
/// F64 bit patterns so a resumed report reproduces the straight run's
/// opt-in timing fields for already-finished phases; the per-engine profile
/// breakdown (pure wall clock, opt-in only) is intentionally dropped.
void WritePhaseReport(CheckpointWriter* out, const PhaseReport& pr) {
  out->Str(pr.name);
  out->Str(pr.mode);
  out->U64(pr.cycles);
  out->U64(pr.online_at_end);
  out->U64(pr.departures);
  out->U64(pr.rejoins);
  out->I64(pr.queries_issued);
  out->I64(pr.queries_completed);
  out->F64(pr.avg_recall);
  out->F64(pr.avg_coverage);
  out->F64(pr.success_ratio);
  WriteMetrics(out, pr.traffic);
  WriteDeliveryStats(out, pr.delivery);
  out->U64(pr.in_flight_at_end);
  out->Str(pr.arrivals);
  WriteQueryLatencyStats(out, pr.query_latency);
  out->U64(pr.open_queries_at_end);
  out->F64(pr.timing.wall_seconds);
  out->F64(pr.timing.cycles_per_sec);
  out->F64(pr.timing.user_cycles_per_sec);
  out->F64(pr.timing.queries_per_sec);
  out->F64(pr.timing.slo_queries_per_sec);
  out->I64(pr.timing.threads);
  WriteKindCounts(out, pr.trace_events);
}

PhaseReport ReadPhaseReport(CheckpointReader* in) {
  PhaseReport pr;
  pr.name = in->Str();
  pr.mode = in->Str();
  pr.cycles = in->U64();
  pr.online_at_end = static_cast<std::size_t>(in->U64());
  pr.departures = static_cast<std::size_t>(in->U64());
  pr.rejoins = static_cast<std::size_t>(in->U64());
  pr.queries_issued = static_cast<int>(in->I64());
  pr.queries_completed = static_cast<int>(in->I64());
  pr.avg_recall = in->F64();
  pr.avg_coverage = in->F64();
  pr.success_ratio = in->F64();
  pr.traffic = ReadMetrics(in);
  pr.delivery = ReadDeliveryStats(in);
  pr.in_flight_at_end = static_cast<std::size_t>(in->U64());
  pr.arrivals = in->Str();
  pr.query_latency = ReadQueryLatencyStats(in);
  pr.open_queries_at_end = static_cast<std::size_t>(in->U64());
  pr.timing.wall_seconds = in->F64();
  pr.timing.cycles_per_sec = in->F64();
  pr.timing.user_cycles_per_sec = in->F64();
  pr.timing.queries_per_sec = in->F64();
  pr.timing.slo_queries_per_sec = in->F64();
  pr.timing.threads = static_cast<int>(in->I64());
  pr.trace_events = ReadKindCounts(in);
  return pr;
}

/// Writes the identity header: which scenario and result-affecting options
/// produced this snapshot (threads/tracer/profiler excluded — they never
/// change results).
void WriteRunHeader(CheckpointWriter* out, const std::string& scenario_name,
                    const ScenarioRunnerOptions& options,
                    const LatencySpec& latency) {
  out->Str(scenario_name);
  out->I64(options.users);
  out->U64(options.seed);
  out->F64(options.cycle_scale);
  out->I64(options.network_size);
  out->I64(options.stored_profiles);
  out->F64(options.alpha);
  out->I64(options.top_k);
  out->U32(static_cast<std::uint32_t>(options.similarity));
  WriteLatencySpec(out, latency);
  out->U8(options.arrivals.has_value() ? 1 : 0);
  if (options.arrivals.has_value()) WriteArrivalSpec(out, *options.arrivals);
  out->Sentinel();
}

CheckpointRunInfo ReadRunHeader(CheckpointReader* in) {
  CheckpointRunInfo info;
  info.scenario = in->Str();
  info.users = static_cast<int>(in->I64());
  info.seed = in->U64();
  info.cycle_scale = in->F64();
  info.network_size = static_cast<int>(in->I64());
  info.stored_profiles = static_cast<int>(in->I64());
  info.alpha = in->F64();
  info.top_k = static_cast<int>(in->I64());
  const std::uint32_t similarity = in->U32();
  if (similarity > static_cast<std::uint32_t>(SimilarityMetric::kOverlap)) {
    throw CheckpointError("unknown similarity metric " +
                          std::to_string(similarity) + " in checkpoint");
  }
  info.similarity = static_cast<SimilarityMetric>(similarity);
  info.latency = ReadLatencySpec(in);
  if (in->U8() != 0) info.arrivals = ReadArrivalSpec(in);
  in->Sentinel("run header");
  return info;
}

/// Throws a CheckpointError naming the first option the resuming run sets
/// differently from what the snapshot was written with.
void VerifyResumeHeader(const CheckpointRunInfo& info, const Scenario& scenario,
                        const ScenarioRunnerOptions& options,
                        const LatencySpec& latency) {
  const auto mismatch = [](const std::string& what, const std::string& saved,
                           const std::string& now) {
    throw CheckpointError("checkpoint was written with " + what + " = " +
                          saved + " but this run uses " + now +
                          "; resume with matching options");
  };
  if (info.scenario != scenario.name) {
    mismatch("scenario", info.scenario, scenario.name);
  }
  if (info.users != options.users) {
    mismatch("users", std::to_string(info.users),
             std::to_string(options.users));
  }
  if (info.seed != options.seed) {
    mismatch("seed", std::to_string(info.seed), std::to_string(options.seed));
  }
  if (info.cycle_scale != options.cycle_scale) {
    mismatch("cycle_scale", std::to_string(info.cycle_scale),
             std::to_string(options.cycle_scale));
  }
  if (info.network_size != options.network_size) {
    mismatch("network_size", std::to_string(info.network_size),
             std::to_string(options.network_size));
  }
  if (info.stored_profiles != options.stored_profiles) {
    mismatch("stored_profiles", std::to_string(info.stored_profiles),
             std::to_string(options.stored_profiles));
  }
  if (info.alpha != options.alpha) {
    mismatch("alpha", std::to_string(info.alpha),
             std::to_string(options.alpha));
  }
  if (info.top_k != options.top_k) {
    mismatch("top_k", std::to_string(info.top_k),
             std::to_string(options.top_k));
  }
  if (info.similarity != options.similarity) {
    mismatch("similarity", SimilarityMetricName(info.similarity),
             SimilarityMetricName(options.similarity));
  }
  if (info.latency.Name() != latency.Name()) {
    mismatch("latency", info.latency.Name(), latency.Name());
  }
  if (info.arrivals.has_value() != options.arrivals.has_value() ||
      (info.arrivals.has_value() &&
       !SameArrivalSpec(*info.arrivals, *options.arrivals))) {
    mismatch("arrivals",
             info.arrivals.has_value() ? info.arrivals->Name() : "none",
             options.arrivals.has_value() ? options.arrivals->Name() : "none");
  }
}

/// Everything the runner section restores: the resume position, the
/// workload state, the closed phase reports, and the in-progress phase's
/// partial accumulators and before-snapshots.
struct RunnerResumeState {
  std::size_t phase_index = 0;
  std::uint64_t cycle = 0;  ///< within the resumed phase
  std::uint64_t serving_cycle = 0;
  bool has_tracker = false;
  bool open_loop = false;
  std::uint64_t slo_cycles = 0;
  QueryLatencyStats serving_stats;
  bool arrival_active = false;
  std::array<std::uint64_t, 4> arrival_rng{};
  std::vector<PhaseReport> completed;
  std::uint64_t pr_departures = 0;
  std::uint64_t pr_rejoins = 0;
  std::int64_t pr_queries_issued = 0;
  Metrics before;
  DeliveryStats delivery_before;
  QueryLatencyStats serving_before;
  bool traced = false;
  std::uint64_t trace_next_seq = 0;
  Tracer::KindCounts trace_counts{};
  Tracer::KindCounts trace_before{};
  double online_cycle_sum = 0;
  std::vector<OpenQuery> open;
};

/// Reads the runner section of a checkpoint into a RunnerResumeState.
/// `system` is already restored: every open query id, closed-loop or
/// tracked, must name one of its live queries, else CheckpointError.
RunnerResumeState ReadRunnerSection(CheckpointReader* in,
                                    const P3QSystem& system, Rng* workload_rng,
                                    Rng* serving_rng,
                                    std::optional<ServingTracker>* tracker) {
  RunnerResumeState s;
  const std::uint64_t num_completed = in->Count(64);
  s.completed.reserve(static_cast<std::size_t>(num_completed));
  for (std::uint64_t p = 0; p < num_completed; ++p) {
    s.completed.push_back(ReadPhaseReport(in));
  }
  s.phase_index = s.completed.size();
  s.cycle = in->U64();
  s.serving_cycle = in->U64();
  ReadRngState(in, workload_rng);
  ReadRngState(in, serving_rng);
  s.has_tracker = in->U8() != 0;
  if (s.has_tracker) {
    tracker->emplace(0, 0.0);  // overwritten entirely by LoadState
    (*tracker)->LoadState(in, system);
  }
  s.open_loop = in->U8() != 0;
  s.slo_cycles = in->U64();
  s.serving_stats = ReadQueryLatencyStats(in);
  s.arrival_active = in->U8() != 0;
  if (s.arrival_active) {
    Rng scratch(0);
    ReadRngState(in, &scratch);
    s.arrival_rng = scratch.State();
  }
  s.pr_departures = in->U64();
  s.pr_rejoins = in->U64();
  s.pr_queries_issued = in->I64();
  s.before = ReadMetrics(in);
  s.delivery_before = ReadDeliveryStats(in);
  s.serving_before = ReadQueryLatencyStats(in);
  s.traced = in->U8() != 0;
  if (s.traced) {
    s.trace_next_seq = in->U64();
    s.trace_counts = ReadKindCounts(in);
    s.trace_before = ReadKindCounts(in);
  }
  s.online_cycle_sum = in->F64();
  const std::uint64_t num_open = in->Count(16);
  s.open.reserve(static_cast<std::size_t>(num_open));
  for (std::uint64_t q = 0; q < num_open; ++q) {
    OpenQuery query;
    query.id = in->U64();
    if (!system.HasQuery(query.id)) {
      throw CheckpointError("runner open query id " +
                            std::to_string(query.id) + " names no live query");
    }
    const std::uint64_t num_reference = in->Count(4);
    query.reference.reserve(static_cast<std::size_t>(num_reference));
    for (std::uint64_t r = 0; r < num_reference; ++r) {
      query.reference.push_back(in->U32());
    }
    s.open.push_back(std::move(query));
  }
  in->Sentinel("runner");
  return s;
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
  // default is ZeroLatency (byte-identical to the synchronous engine).
  const LatencySpec latency = options.latency.value_or(scenario.latency);
  system.SetLatency(latency);
  system.SetTracer(options.tracer);
  system.SetProfiler(options.profiler);
  const bool resuming = !options.resume_path.empty();
  // A resumed run restores every view/network/rng below, so the bootstrap
  // draws would be overwritten anyway — skip the work.
  if (!resuming) system.BootstrapRandomViews();
  // Workload randomness (querier choice, duty sampling, update batches) is
  // forked off the master seed, decorrelated from the system's own stream.
  Rng workload_rng(options.seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
  // Open-loop serving draws querier choices from its own forked stream so
  // enabling the harness never perturbs the closed-loop workload stream
  // (arrival counts have yet another, inside ArrivalProcess).
  Rng serving_rng(options.seed * 0x9e3779b97f4a7c15ULL + 0x8a5cd789635d2dffULL);
  std::optional<ServingTracker> tracker;  // created at the first arrival phase
  QueryLatencyStats serving_stats;
  std::uint64_t serving_cycle = 0;  // global timeline cycle, across phases

  ScenarioReport report;
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

  RunnerResumeState resume;
  if (resuming) {
    const std::vector<std::uint8_t> payload =
        ReadCheckpointPayload(options.resume_path);
    CheckpointReader in(payload.data(), payload.size());
    VerifyResumeHeader(ReadRunHeader(&in), scenario, options, latency);
    system.LoadCheckpoint(&in);
    resume =
        ReadRunnerSection(&in, system, &workload_rng, &serving_rng, &tracker);
    in.ExpectEnd();
    if (resume.phase_index >= scenario.phases.size()) {
      throw CheckpointError(
          "checkpoint resume position is past the end of the timeline");
    }
    serving_cycle = resume.serving_cycle;
    serving_stats = resume.serving_stats;
    report.open_loop = resume.open_loop;
    report.slo_cycles = resume.slo_cycles;
    if (options.tracer != nullptr && resume.traced) {
      // Continue the straight run's event numbering: the resumed JSONL is a
      // byte-suffix of the full trace.
      options.tracer->RestoreCursor(resume.trace_next_seq,
                                    resume.trace_counts);
    }
    for (PhaseReport& done : resume.completed) {
      report.total_cycles += done.cycles;
      report.total_departures += done.departures;
      report.total_rejoins += done.rejoins;
      report.total_queries_issued += done.queries_issued;
      report.total_queries_completed += done.queries_completed;
      report.total_timing.wall_seconds += done.timing.wall_seconds;
      report.phases.push_back(std::move(done));
    }
    if (want_checkpoint && *options.checkpoint_at < serving_cycle) {
      throw std::invalid_argument(
          "ScenarioRunnerOptions: checkpoint_at " +
          std::to_string(*options.checkpoint_at) +
          " is before the resume position (" + std::to_string(serving_cycle) +
          ")");
    }
  }

  for (std::size_t phase_index = 0; phase_index < scenario.phases.size();
       ++phase_index) {
    if (resuming && phase_index < resume.phase_index) continue;
    const bool resumed_phase = resuming && phase_index == resume.phase_index;
    const ScenarioPhase& phase = scenario.phases[phase_index];
    const std::uint64_t cycles = ScaledCycles(phase, options.cycle_scale);

    PhaseReport pr;
    pr.name = phase.name;
    pr.mode = PhaseModeName(phase.mode);
    pr.cycles = cycles;

    const ArrivalSpec& phase_arrivals =
        EffectiveArrivals(scenario, phase, options);
    std::optional<ArrivalProcess> arrival_process;
    if (!phase_arrivals.IsNone()) {
      if (!tracker.has_value()) {
        // The SLO/recall target of the run come from the first serving
        // phase; later phases may change the rate but not the target.
        tracker.emplace(phase_arrivals.slo_cycles,
                        phase_arrivals.recall_target);
        report.open_loop = true;
        report.slo_cycles = phase_arrivals.slo_cycles;
      }
      arrival_process.emplace(phase_arrivals,
                              options.seed + report.phases.size());
      pr.arrivals = phase_arrivals.Name();
    }
    if (resumed_phase) {
      if (resume.cycle >= cycles) {
        throw CheckpointError(
            "checkpoint resume position is past the phase end");
      }
      if (resume.arrival_active != arrival_process.has_value()) {
        throw CheckpointError(
            "checkpoint arrival-process state does not match the scenario's "
            "phase");
      }
      if (arrival_process.has_value()) {
        arrival_process->rng().SetState(resume.arrival_rng);
      }
      pr.departures = static_cast<std::size_t>(resume.pr_departures);
      pr.rejoins = static_cast<std::size_t>(resume.pr_rejoins);
      pr.queries_issued = static_cast<int>(resume.pr_queries_issued);
    }
    const QueryLatencyStats serving_before =
        resumed_phase ? resume.serving_before : serving_stats;

    std::vector<OpenQuery> open =
        resumed_phase ? std::move(resume.open) : std::vector<OpenQuery>{};
    const Metrics before =
        resumed_phase ? resume.before : system.metrics().Snapshot();
    const DeliveryStats delivery_before =
        resumed_phase ? resume.delivery_before : system.DeliveryStatsTotal();
    Tracer::KindCounts trace_before{};
    if (options.tracer != nullptr) {
      trace_before = resumed_phase && resume.traced ? resume.trace_before
                                                    : options.tracer->counts();
    }
    std::map<std::string, PhaseBreakdown> profile_before;
    if (options.profiler != nullptr) {
      profile_before = options.profiler->Snapshot();
    }
    double online_cycle_sum =
        resumed_phase ? resume.online_cycle_sum
                      : 0;  // Σ over cycles of online users (work rate)

    // Snapshots the whole run — identity header, system, runner position —
    // into options.checkpoint_path. Everything captured lives above.
    const auto save_checkpoint = [&](std::uint64_t cycle_in_phase) {
      CheckpointWriter payload;
      WriteRunHeader(&payload, scenario.name, options, latency);
      system.SaveCheckpoint(&payload);
      payload.U64(report.phases.size());
      for (const PhaseReport& done : report.phases) {
        WritePhaseReport(&payload, done);
      }
      payload.U64(cycle_in_phase);
      payload.U64(serving_cycle);
      WriteRngState(&payload, workload_rng);
      WriteRngState(&payload, serving_rng);
      payload.U8(tracker.has_value() ? 1 : 0);
      if (tracker.has_value()) tracker->SaveState(&payload);
      payload.U8(report.open_loop ? 1 : 0);
      payload.U64(report.slo_cycles);
      WriteQueryLatencyStats(&payload, serving_stats);
      payload.U8(arrival_process.has_value() ? 1 : 0);
      if (arrival_process.has_value()) {
        WriteRngState(&payload, arrival_process->rng());
      }
      payload.U64(pr.departures);
      payload.U64(pr.rejoins);
      payload.I64(pr.queries_issued);
      WriteMetrics(&payload, before);
      WriteDeliveryStats(&payload, delivery_before);
      WriteQueryLatencyStats(&payload, serving_before);
      payload.U8(options.tracer != nullptr ? 1 : 0);
      if (options.tracer != nullptr) {
        payload.U64(options.tracer->accepted());
        WriteKindCounts(&payload, options.tracer->counts());
        WriteKindCounts(&payload, trace_before);
      }
      payload.F64(online_cycle_sum);
      payload.U64(open.size());
      for (const OpenQuery& q : open) {
        payload.U64(q.id);
        payload.U64(q.reference.size());
        for (ItemId item : q.reference) payload.U32(item);
      }
      payload.Sentinel();
      WriteCheckpointFile(options.checkpoint_path, payload);
    };

    const std::uint64_t start_cycle = resumed_phase ? resume.cycle : 0;
    const auto wall_start = std::chrono::steady_clock::now();
    for (std::uint64_t cycle = start_cycle; cycle < cycles; ++cycle) {
      // 0. Checkpoint — taken at the top of the timeline cycle, BEFORE this
      // cycle's events fire, so the resumed run fires them exactly once.
      if (want_checkpoint && !checkpoint_written &&
          serving_cycle == *options.checkpoint_at) {
        save_checkpoint(cycle);
        checkpoint_written = true;
      }

      // 1. Scheduled events.
      for (const ScenarioEvent& event : phase.events) {
        if (ScaleOffset(event.at_cycle, options.cycle_scale, cycles) != cycle) {
          continue;
        }
        switch (event.kind) {
          case EventKind::kDeparture: {
            const std::vector<UserId> departed =
                system.FailRandomFraction(event.fraction);
            pr.departures += departed.size();
            TraceLiveness(options.tracer, TraceEventKind::kNodeDeparted,
                          serving_cycle, departed);
            break;
          }
          case EventKind::kRejoin: {
            const std::vector<UserId> rejoined =
                system.RejoinRandomFraction(event.fraction);
            pr.rejoins += rejoined.size();
            TraceLiveness(options.tracer, TraceEventKind::kNodeRejoined,
                          serving_cycle, rejoined);
            break;
          }
          case EventKind::kQueryBurst: {
            const std::vector<UserId> online = system.network().OnlineUsers();
            for (int i = 0; i < event.count; ++i) {
              if (auto q = IssueRandomQuery(&system, online, &workload_rng)) {
                open.push_back(std::move(*q));
                ++pr.queries_issued;
              }
            }
            break;
          }
          case EventKind::kUpdateStorm: {
            const UpdateBatch batch = stream.MakeUpdateBatch(
                event.update, &workload_rng, original_actions);
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
            std::clamp(phase.duty(cycle, cycles), 0.0, 1.0);
        const auto target_online = static_cast<std::size_t>(std::llround(
            target * static_cast<double>(system.NumUsers())));
        const std::size_t current = system.network().NumOnline();
        if (current > target_online) {
          const std::vector<UserId> leaving =
              workload_rng.SampleWithoutReplacement(
                  system.network().OnlineUsers(), current - target_online);
          for (UserId u : leaving) system.FailUser(u);
          pr.departures += leaving.size();
          TraceLiveness(options.tracer, TraceEventKind::kNodeDeparted,
                        serving_cycle, leaving);
        } else if (current < target_online) {
          std::vector<UserId> back = workload_rng.SampleWithoutReplacement(
              system.network().OfflineUsers(), target_online - current);
          std::sort(back.begin(), back.end());
          for (UserId u : back) system.RejoinUser(u);
          pr.rejoins += back.size();
          TraceLiveness(options.tracer, TraceEventKind::kNodeRejoined,
                        serving_cycle, back);
        }
      }

      // 3. Background query workload.
      if (phase.queries_per_cycle > 0) {
        const std::vector<UserId> online = system.network().OnlineUsers();
        for (int i = 0; i < phase.queries_per_cycle; ++i) {
          if (auto q = IssueRandomQuery(&system, online, &workload_rng)) {
            open.push_back(std::move(*q));
            ++pr.queries_issued;
          }
        }
      }

      // 4. Open-loop arrivals (the serving workload rides the same cycle as
      // the closed-loop background queries, but is tracked to completion).
      if (arrival_process.has_value()) {
        const int n = arrival_process->ArrivalsAt(cycle);
        if (n > 0) {
          const std::vector<UserId> online = system.network().OnlineUsers();
          for (int i = 0; i < n; ++i) {
            if (auto q = IssueRandomQuery(&system, online, &serving_rng)) {
              tracker->Track(&system, q->id, serving_cycle,
                             std::move(q->reference), &serving_stats);
            }
          }
        }
      }

      // 5. Protocol cycles.
      online_cycle_sum += static_cast<double>(system.network().NumOnline());
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
      ++serving_cycle;
      if (tracker.has_value() && tracker->open() > 0) {
        tracker->Poll(&system, serving_cycle, &serving_stats);
      }

      // 7. Progress heartbeat (stderr only; stdout reports are sacred).
      if (options.progress_every > 0 &&
          serving_cycle % options.progress_every == 0) {
        std::fprintf(stderr,
                     "p3q_sim: phase %s cycle %llu/%llu (timeline %llu), "
                     "%zu queries open, %zu messages in flight\n",
                     phase.name.c_str(),
                     static_cast<unsigned long long>(cycle + 1),
                     static_cast<unsigned long long>(cycles),
                     static_cast<unsigned long long>(serving_cycle),
                     tracker.has_value() ? tracker->open() : std::size_t{0},
                     system.MessagesInFlight());
      }

      // 8. Stop condition: the phase ends as soon as the networks reach its
      // success-ratio target.
      if (phase.stop_at_success_ratio > 0 &&
          success_ratio() >= phase.stop_at_success_ratio) {
        pr.cycles = cycle + 1;
        break;
      }
    }
    const auto wall_end = std::chrono::steady_clock::now();

    // Phase boundary: sample every query issued during the phase against
    // its centralized reference, then release it.
    double recall_sum = 0, coverage_sum = 0;
    for (const OpenQuery& q : open) {
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
    pr.traffic = system.metrics().Since(before);
    pr.delivery = system.DeliveryStatsTotal().Since(delivery_before);
    pr.in_flight_at_end = system.MessagesInFlight();
    pr.query_latency = serving_stats.Since(serving_before);
    pr.open_queries_at_end = tracker.has_value() ? tracker->open() : 0;
    if (options.tracer != nullptr) {
      const Tracer::KindCounts& now = options.tracer->counts();
      for (std::size_t i = 0; i < now.size(); ++i) {
        pr.trace_events[i] = MonotoneDelta(now[i], trace_before[i]);
      }
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
          online_cycle_sum / pr.timing.wall_seconds;
      pr.timing.queries_per_sec =
          static_cast<double>(pr.query_latency.completed) /
          pr.timing.wall_seconds;
      pr.timing.slo_queries_per_sec =
          static_cast<double>(pr.query_latency.completed_within_slo) /
          pr.timing.wall_seconds;
    }

    report.total_cycles += pr.cycles;
    report.total_departures += pr.departures;
    report.total_rejoins += pr.rejoins;
    report.total_queries_issued += pr.queries_issued;
    report.total_queries_completed += pr.queries_completed;
    report.total_timing.wall_seconds += pr.timing.wall_seconds;
    report.phases.push_back(std::move(pr));
  }
  // A phase that met its stop target shortens the timeline, which can skip
  // the checkpoint cycle; fail rather than silently write no snapshot.
  if (want_checkpoint && !checkpoint_written) {
    throw std::invalid_argument(
        "checkpoint_at " + std::to_string(*options.checkpoint_at) +
        " was never reached: the timeline ended at cycle " +
        std::to_string(serving_cycle));
  }

  // Queries still open when the timeline ends never completed: count them
  // as abandoned in the run totals (the per-phase deltas are already
  // closed, so no phase claims them as completions).
  if (tracker.has_value()) {
    tracker->Abandon(&system, serving_cycle, &serving_stats);
  }
  report.total_query_latency = serving_stats;

  report.total_traffic = system.metrics().Snapshot();
  report.total_delivery = system.DeliveryStatsTotal();
  // Whole-run rollups are read AFTER Abandon so end-of-run query_abandoned
  // events are included (they land past the last phase's delta).
  if (options.tracer != nullptr) {
    report.total_trace_events = options.tracer->counts();
  }
  if (options.profiler != nullptr) {
    report.total_profile = options.profiler->Snapshot();
  }
  const SystemMemoryStats mem = system.MemoryStats();
  report.memory.arena_reserved_bytes = mem.store.arena.reserved_bytes;
  report.memory.arena_used_bytes = mem.store.arena.used_bytes;
  report.memory.arena_slabs = mem.store.arena.slabs;
  report.memory.arena_live_blocks = mem.store.arena.live_blocks;
  report.memory.arena_recycled_slabs = mem.store.arena.recycled_slabs;
  report.memory.pool_hits = mem.store.pool_hits;
  report.memory.pool_misses = mem.store.pool_misses;
  report.memory.probe_memo_bytes = mem.probe_memo_bytes;
  report.memory.personal_network_bytes = mem.personal_network_bytes;
  report.memory.random_view_bytes = mem.random_view_bytes;
  report.memory.peak_in_flight_messages = mem.peak_in_flight_messages;
  report.memory.peak_rss_mb = PeakRssMb();
  ReadHeapStats(&report.memory);

  report.total_timing.threads = system.threads();
  if (report.total_timing.wall_seconds > 0) {
    double online_weighted = 0;
    for (const PhaseReport& pr : report.phases) {
      online_weighted += pr.timing.user_cycles_per_sec * pr.timing.wall_seconds;
    }
    report.total_timing.cycles_per_sec =
        static_cast<double>(report.total_cycles) /
        report.total_timing.wall_seconds;
    report.total_timing.user_cycles_per_sec =
        online_weighted / report.total_timing.wall_seconds;
    report.total_timing.queries_per_sec =
        static_cast<double>(report.total_query_latency.completed) /
        report.total_timing.wall_seconds;
    report.total_timing.slo_queries_per_sec =
        static_cast<double>(report.total_query_latency.completed_within_slo) /
        report.total_timing.wall_seconds;
  }
  return report;
}

}  // namespace

CheckpointRunInfo ReadScenarioCheckpointInfo(const std::string& path) {
  const std::vector<std::uint8_t> payload = ReadCheckpointPayload(path);
  CheckpointReader in(payload.data(), payload.size());
  return ReadRunHeader(&in);
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
