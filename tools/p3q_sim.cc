// p3q_sim — command-line driver for P3Q simulations.
//
// Runs a named, timeline-driven scenario (the scenario engine) with every
// protocol parameter exposed as a flag, and prints its per-phase report.
// Examples:
//
//   p3q_sim --list-scenarios
//   p3q_sim --scenario=diurnal --users=600 --json=out.json
//   p3q_sim --scenario=mixed-stress --cycle-scale=0.5 --csv=out.csv --timing
//   p3q_sim --scenario=steady-state --users=2000 --s=200 --c=20 --alpha=0.3
//
// Convergence (lazy cycles until the personal networks reach a success
// ratio; prints cycles_to_convergence):
//
//   p3q_sim --scenario=convergence --users=400 --seed=1
//
// Asynchronous delivery (the latency model between plan and commit):
//
//   p3q_sim --scenario=steady-state --latency=uniform:1:3 --json=out.json
//   p3q_sim --scenario=convergence --users=400 --latency=fixed:2
//   p3q_sim --scenario=convergence --loss=0.05
//
// Open-loop serving (latency SLOs and saturation sweeps):
//
//   p3q_sim --scenario=open-loop-steady --arrival-rate=2 --json=out.json
//   p3q_sim --scenario=open-loop-saturation --arrival-sweep=1:8:1
//
// Observability (deterministic event traces and wall-clock profiles):
//
//   p3q_sim --scenario=diurnal --trace=events.jsonl
//   p3q_sim --scenario=diurnal --trace=trace.json --trace-format=chrome
//   p3q_sim --scenario=mixed-stress --trace=q.jsonl --trace-filter=query_issued,query_completed
//   p3q_sim --scenario=steady-state --profile=profile.json --progress=200
//
// Checkpoint/resume (deterministic snapshots of a running scenario):
//
//   p3q_sim --scenario=diurnal --checkpoint-at=200 --checkpoint=run.ckpt
//   p3q_sim --resume=run.ckpt --json=out.json
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/table_printer.h"
#include "common/types.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "scenario/registry.h"
#include "scenario/report.h"
#include "scenario/runner.h"
#include "serving/arrival.h"
#include "sim/checkpoint.h"
#include "sim/delivery.h"

namespace {

/// Most rates one --arrival-sweep may run.
constexpr std::size_t kMaxSweepRates = 1000;

/// An --arrival-sweep=lo:hi:step saturation sweep.
struct SweepSpec {
  double lo = 0;
  double hi = 0;
  double step = 0;
  /// lo, lo + step, ... while <= hi (1e-9 absorbs accumulated rounding).
  std::vector<double> rates;
};

struct Options {
  /// The run the flags describe, parsed in place; --resume replaces its
  /// run-shape fields with the snapshot's.
  p3q::ScenarioRunnerOptions run;
  std::string scenario;
  bool help = false;
  bool list_scenarios = false;
  // Reports.
  std::string json_path;
  std::string csv_path;
  bool timing = false;
  // Open-loop serving.
  std::optional<double> arrival_rate;
  std::optional<SweepSpec> arrival_sweep;
  // Observability.
  std::string trace_out;                   // --trace=FILE (event trace)
  std::string trace_format = "jsonl";      // jsonl | chrome
  std::uint32_t trace_mask = 0;            // 0 = every kind
  std::vector<p3q::UserId> trace_nodes;    // empty = every node
  int trace_ring = 0;                      // 0 = stream every event
  std::string profile_path;                // --profile=FILE
  // Run-shape flags given on the command line; --resume reads the run's
  // shape from the snapshot and rejects them.
  std::vector<std::string> run_shape_flags;
};

void PrintUsage() {
  std::cout <<
      "p3q_sim — run a P3Q scenario\n\n"
      "  --scenario=NAME    the scenario timeline to run (required unless\n"
      "                     --resume, --list-scenarios or --help)\n"
      "  --list-scenarios   print the built-in scenarios and exit\n"
      "  --users=N          population size for the synthetic trace (1000)\n"
      "  --s=N              personal network size (users/10, at most 500)\n"
      "  --c=N              stored profiles per user (10)\n"
      "  --alpha=X          remaining-list split parameter (0.5)\n"
      "  --k=N              top-k size (10)\n"
      "  --similarity=M     personal-network distance: common (default,\n"
      "                     alias common_actions), jaccard, cosine or\n"
      "                     overlap; anything else is rejected\n"
      "  --seed=N           master seed (1)\n"
      "  --threads=N        plan-phase worker threads (default: P3Q_THREADS\n"
      "                     env or 1); results are byte-identical for every N\n"
      "  --latency=MODEL    message-delivery latency model: zero (default),\n"
      "                     fixed:K, uniform:LO:HI or lossy:P:MAX; overrides\n"
      "                     a scenario's own latency block. Deterministic\n"
      "                     and byte-identical for every --threads value\n"
      "  --loss=P           shorthand for --latency=lossy:P:2 (cannot be\n"
      "                     combined with a non-lossy --latency)\n"
      "\nRun scale and reports:\n"
      "  --cycle-scale=X    stretch/compress every phase's cycle budget (1.0)\n"
      "  --json=PATH        write the structured scenario report as JSON\n"
      "  --csv=PATH         write the scenario report as CSV\n"
      "  --timing           include wall-clock throughput in JSON/CSV\n"
      "                     reports (off by default so reports from equal\n"
      "                     seeds are byte-identical)\n"
      "\nOpen-loop serving:\n"
      "  --arrival-rate=R   override the scenario's open-loop arrival\n"
      "                     process with Poisson(R) queries per cycle on\n"
      "                     every eager/mixed phase; reports gain\n"
      "                     query-latency percentiles and SLO goodput\n"
      "  --arrival-sweep=LO:HI:STEP\n"
      "                     saturation sweep: run the scenario once per\n"
      "                     rate in [LO, HI] and print latency percentiles\n"
      "                     and goodput per rate (--json writes the sweep\n"
      "                     as a JSON array); at most 1000 rates\n"
      "                     (R and HI at most 1e6)\n"
      "\nObservability (deterministic traces and wall-clock profiles):\n"
      "  --trace=FILE       write a deterministic, cycle-stamped event trace\n"
      "                     (gossip, delivery, query lifecycle, liveness);\n"
      "                     byte-identical for every --threads value\n"
      "  --trace-format=F   trace format: jsonl (default, one JSON object\n"
      "                     per line) or chrome (trace_event JSON; load in\n"
      "                     Perfetto or chrome://tracing)\n"
      "  --trace-filter=KINDS\n"
      "                     comma-separated event kinds to keep (default:\n"
      "                     all), e.g. query_issued,query_completed\n"
      "  --trace-nodes=IDS  comma-separated node ids, each below the run's\n"
      "                     user count: keep only events whose node or peer\n"
      "                     is listed (default: all nodes)\n"
      "  --trace-ring=N     flight-recorder mode: keep only the last N\n"
      "                     accepted events and dump them at exit or when an\n"
      "                     invariant throws (default: stream everything)\n"
      "  --profile=FILE     write per-engine wall-clock phase breakdowns\n"
      "                     (plan/barrier/drain/EndCycle seconds and\n"
      "                     per-shard plan imbalance) as JSON\n"
      "  --progress[=K]     print a stderr heartbeat every K\n"
      "                     timeline cycles (default K=100) with the cycle,\n"
      "                     open queries and messages in flight; stdout\n"
      "                     reports are untouched\n"
      "\nCheckpoint/resume:\n"
      "  --checkpoint-at=CYCLE\n"
      "                     snapshot the full run state at the top of this\n"
      "                     timeline cycle (before its events fire) and keep\n"
      "                     running; requires --checkpoint=FILE\n"
      "  --checkpoint=FILE  where --checkpoint-at writes the snapshot\n"
      "  --resume=FILE      restore a run from a snapshot and replay only\n"
      "                     the remaining timeline; the scenario, seed and\n"
      "                     every result-affecting option come from the\n"
      "                     file, so the final report is byte-identical to\n"
      "                     the straight-through run's. --threads, --json,\n"
      "                     --csv, --trace and --progress still apply; the\n"
      "                     run-shape flags (--scenario, --users, --seed,\n"
      "                     --s, --c, --alpha, --k, --similarity,\n"
      "                     --cycle-scale, --latency, --loss, --arrival-*)\n"
      "                     are rejected\n";
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  if (arg[len] == '\0') {
    value->clear();
    return true;
  }
  return false;
}

/// Strict whole-string numeric flag parsing (common/parse.h): a typo like
/// --users=1e3 or --threads=2x is a hard error, never a silent 0 the way
/// std::atoi would read it.
bool ParseIntFlag(const char* flag, const std::string& value, int* out) {
  if (!p3q::ParseStrictInt(value, out)) {
    std::cerr << flag << ": cannot parse '" << value << "' as an integer\n";
    return false;
  }
  return true;
}

bool ParseDoubleFlag(const char* flag, const std::string& value, double* out) {
  if (!p3q::ParseStrictDouble(value, out)) {
    std::cerr << flag << ": cannot parse '" << value << "' as a number\n";
    return false;
  }
  return true;
}

bool ParseUint64Flag(const char* flag, const std::string& value,
                     std::uint64_t* out) {
  if (!p3q::ParseStrictUint64(value, out)) {
    std::cerr << flag << ": cannot parse '" << value
              << "' as a non-negative integer\n";
    return false;
  }
  return true;
}

/// Parses --arrival-sweep=LO:HI:STEP.
bool ParseSweepSpec(const std::string& value, SweepSpec* out) {
  const std::size_t first = value.find(':');
  const std::size_t second =
      first == std::string::npos ? std::string::npos
                                 : value.find(':', first + 1);
  if (first == std::string::npos || second == std::string::npos ||
      !p3q::ParseStrictDouble(value.substr(0, first), &out->lo) ||
      !p3q::ParseStrictDouble(value.substr(first + 1, second - first - 1),
                              &out->hi) ||
      !p3q::ParseStrictDouble(value.substr(second + 1), &out->step)) {
    std::cerr << "--arrival-sweep: expected LO:HI:STEP, got '" << value
              << "'\n";
    return false;
  }
  if (!(out->lo >= 0) || !(out->hi >= out->lo) || !(out->step > 0)) {
    std::cerr << "--arrival-sweep: need 0 <= LO <= HI and STEP > 0\n";
    return false;
  }
  if (out->hi > p3q::kMaxArrivalRate) {
    std::cerr << "--arrival-sweep: HI must be <= " << p3q::kMaxArrivalRate
              << "\n";
    return false;
  }
  out->rates.clear();
  for (double rate = out->lo; rate <= out->hi + 1e-9; rate += out->step) {
    if (out->rates.size() == kMaxSweepRates) {
      std::cerr << "--arrival-sweep: more than " << kMaxSweepRates
                << " rates; raise STEP\n";
      return false;
    }
    if (rate + out->step == rate) {
      std::cerr << "--arrival-sweep: STEP " << out->step
                << " does not advance the rate past " << rate << "\n";
      return false;
    }
    out->rates.push_back(rate);
  }
  return true;
}

std::optional<Options> ParseArgs(int argc, char** argv) {
  Options opt;
  // p3q_sim's one default that differs from the runner's: 1000 users.
  opt.run.users = 1000;
  std::string latency_text;
  std::optional<double> loss;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    for (const char* flag : {"--users", "--seed", "--s", "--c", "--alpha",
                             "--k", "--similarity", "--cycle-scale"}) {
      if (ParseFlag(argv[i], flag, &value)) opt.run_shape_flags.push_back(flag);
    }
    if (ParseFlag(argv[i], "--help", &value)) {
      opt.help = true;
    } else if (ParseFlag(argv[i], "--users", &value)) {
      if (!ParseIntFlag("--users", value, &opt.run.users)) return std::nullopt;
    } else if (ParseFlag(argv[i], "--s", &value)) {
      if (!ParseIntFlag("--s", value, &opt.run.network_size)) {
        return std::nullopt;
      }
    } else if (ParseFlag(argv[i], "--c", &value)) {
      if (!ParseIntFlag("--c", value, &opt.run.stored_profiles)) {
        return std::nullopt;
      }
    } else if (ParseFlag(argv[i], "--alpha", &value)) {
      if (!ParseDoubleFlag("--alpha", value, &opt.run.alpha)) {
        return std::nullopt;
      }
    } else if (ParseFlag(argv[i], "--k", &value)) {
      if (!ParseIntFlag("--k", value, &opt.run.top_k)) return std::nullopt;
    } else if (ParseFlag(argv[i], "--similarity", &value)) {
      if (!p3q::ParseSimilarityMetric(value, &opt.run.similarity)) {
        std::cerr << "--similarity: unknown metric '" << value
                  << "' (expected common|jaccard|cosine|overlap)\n";
        return std::nullopt;
      }
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      if (!ParseUint64Flag("--seed", value, &opt.run.seed)) {
        return std::nullopt;
      }
    } else if (ParseFlag(argv[i], "--threads", &value)) {
      if (!ParseIntFlag("--threads", value, &opt.run.threads)) {
        return std::nullopt;
      }
    } else if (ParseFlag(argv[i], "--latency", &value)) {
      latency_text = value;
    } else if (ParseFlag(argv[i], "--loss", &value)) {
      double p = 0;
      if (!ParseDoubleFlag("--loss", value, &p)) return std::nullopt;
      loss = p;
    } else if (ParseFlag(argv[i], "--scenario", &value)) {
      opt.scenario = value;
    } else if (ParseFlag(argv[i], "--list-scenarios", &value)) {
      opt.list_scenarios = true;
    } else if (ParseFlag(argv[i], "--cycle-scale", &value)) {
      if (!ParseDoubleFlag("--cycle-scale", value, &opt.run.cycle_scale)) {
        return std::nullopt;
      }
    } else if (ParseFlag(argv[i], "--arrival-rate", &value)) {
      double rate = 0;
      if (!ParseDoubleFlag("--arrival-rate", value, &rate)) {
        return std::nullopt;
      }
      opt.arrival_rate = rate;
    } else if (ParseFlag(argv[i], "--arrival-sweep", &value)) {
      SweepSpec sweep;
      if (!ParseSweepSpec(value, &sweep)) return std::nullopt;
      opt.arrival_sweep = sweep;
    } else if (ParseFlag(argv[i], "--json", &value)) {
      opt.json_path = value;
    } else if (ParseFlag(argv[i], "--csv", &value)) {
      opt.csv_path = value;
    } else if (ParseFlag(argv[i], "--timing", &value)) {
      opt.timing = true;
    } else if (ParseFlag(argv[i], "--trace-format", &value)) {
      opt.trace_format = value;
    } else if (ParseFlag(argv[i], "--trace-filter", &value)) {
      if (const std::string problem =
              p3q::ParseTraceKindMask(value, &opt.trace_mask);
          !problem.empty()) {
        std::cerr << "--trace-filter: " << problem << "\n";
        return std::nullopt;
      }
    } else if (ParseFlag(argv[i], "--trace-nodes", &value)) {
      std::stringstream ss(value);
      std::string token;
      while (std::getline(ss, token, ',')) {
        std::uint64_t id = 0;
        if (!p3q::ParseStrictUint64(token, &id)) {
          std::cerr << "--trace-nodes: cannot parse '" << token
                    << "' as a node id\n";
          return std::nullopt;
        }
        if (id >= p3q::kInvalidUser) {
          std::cerr << "--trace-nodes: node id " << id
                    << " does not fit a user id (at most "
                    << p3q::kInvalidUser - 1 << ")\n";
          return std::nullopt;
        }
        opt.trace_nodes.push_back(static_cast<p3q::UserId>(id));
      }
      if (opt.trace_nodes.empty()) {
        std::cerr << "--trace-nodes: expected a comma-separated id list\n";
        return std::nullopt;
      }
    } else if (ParseFlag(argv[i], "--trace-ring", &value)) {
      if (!ParseIntFlag("--trace-ring", value, &opt.trace_ring)) {
        return std::nullopt;
      }
    } else if (ParseFlag(argv[i], "--trace", &value)) {
      opt.trace_out = value;
    } else if (ParseFlag(argv[i], "--checkpoint-at", &value)) {
      std::uint64_t at = 0;
      if (!ParseUint64Flag("--checkpoint-at", value, &at)) return std::nullopt;
      opt.run.checkpoint_at = at;
    } else if (ParseFlag(argv[i], "--checkpoint", &value)) {
      opt.run.checkpoint_path = value;
    } else if (ParseFlag(argv[i], "--resume", &value)) {
      opt.run.resume_path = value;
    } else if (ParseFlag(argv[i], "--profile", &value)) {
      opt.profile_path = value;
    } else if (ParseFlag(argv[i], "--progress", &value)) {
      opt.run.progress_every = 100;  // bare --progress: a sensible default K
      if (!value.empty() &&
          !ParseUint64Flag("--progress", value, &opt.run.progress_every)) {
        return std::nullopt;
      }
    } else {
      std::cerr << "unknown flag: " << argv[i] << "\n";
      return std::nullopt;
    }
  }
  if (opt.run.users < 1) {
    std::cerr << "--users must be >= 1\n";
    return std::nullopt;
  }
  if (!(opt.run.cycle_scale > 0)) {
    std::cerr << "--cycle-scale must be > 0\n";
    return std::nullopt;
  }
  if (opt.run.threads < 0) {
    std::cerr << "--threads must be >= 0 (0 = inherit P3Q_THREADS)\n";
    return std::nullopt;
  }
  if (opt.scenario.empty() && opt.run.resume_path.empty() && !opt.help &&
      !opt.list_scenarios) {
    std::cerr << "p3q_sim runs a scenario: pass --scenario=NAME (see "
                 "--list-scenarios) or --resume=FILE\n";
    return std::nullopt;
  }
  if (!opt.scenario.empty() && !p3q::HasScenario(opt.scenario)) {
    std::cerr << "unknown scenario: " << opt.scenario
              << " (see --list-scenarios)\n";
    return std::nullopt;
  }
  if (!latency_text.empty()) {
    p3q::LatencySpec spec;
    if (const std::string problem = p3q::ParseLatencySpec(latency_text, &spec);
        !problem.empty()) {
      std::cerr << "--latency: " << problem << "\n";
      return std::nullopt;
    }
    opt.run.latency = spec;
  }
  if (loss.has_value()) {
    if (*loss < 0.0 || *loss > 1.0) {
      std::cerr << "--loss must be in [0, 1]\n";
      return std::nullopt;
    }
    if (opt.run.latency.has_value() &&
        opt.run.latency->kind != p3q::LatencyKind::kLossy) {
      std::cerr << "--loss only combines with --latency=lossy:P:MAX (use "
                   "that form directly)\n";
      return std::nullopt;
    }
    p3q::LatencySpec spec = opt.run.latency.value_or(
        p3q::LatencySpec{p3q::LatencyKind::kLossy, /*fixed=*/0, /*lo=*/0,
                         /*hi=*/0, /*loss=*/0.0, /*max_delay=*/2});
    spec.kind = p3q::LatencyKind::kLossy;
    spec.loss = *loss;
    opt.run.latency = spec;
  }
  if (opt.arrival_rate.has_value() && opt.arrival_sweep.has_value()) {
    std::cerr << "--arrival-rate and --arrival-sweep are mutually "
                 "exclusive\n";
    return std::nullopt;
  }
  if (opt.arrival_rate.has_value() &&
      !(*opt.arrival_rate >= 0 && *opt.arrival_rate <= p3q::kMaxArrivalRate)) {
    std::cerr << "--arrival-rate must be in [0, " << p3q::kMaxArrivalRate
              << "]\n";
    return std::nullopt;
  }
  if (opt.trace_format != "jsonl" && opt.trace_format != "chrome") {
    std::cerr << "--trace-format must be jsonl or chrome, got '"
              << opt.trace_format << "'\n";
    return std::nullopt;
  }
  if (opt.trace_out.empty() &&
      (opt.trace_mask != 0 || !opt.trace_nodes.empty() ||
       opt.trace_ring != 0)) {
    std::cerr << "--trace-filter/--trace-nodes/--trace-ring require "
                 "--trace=FILE\n";
    return std::nullopt;
  }
  if (opt.trace_ring < 0) {
    std::cerr << "--trace-ring must be >= 0\n";
    return std::nullopt;
  }
  if ((!opt.trace_out.empty() || !opt.profile_path.empty()) &&
      opt.arrival_sweep.has_value()) {
    std::cerr << "--trace/--profile cover a single run; they cannot be "
                 "combined with --arrival-sweep\n";
    return std::nullopt;
  }
  if (opt.run.checkpoint_at.has_value() && opt.run.checkpoint_path.empty()) {
    std::cerr << "--checkpoint-at requires --checkpoint=FILE\n";
    return std::nullopt;
  }
  if (!opt.run.checkpoint_path.empty() && !opt.run.checkpoint_at.has_value()) {
    std::cerr << "--checkpoint requires --checkpoint-at=CYCLE\n";
    return std::nullopt;
  }
  if (opt.run.checkpoint_at.has_value() && opt.arrival_sweep.has_value()) {
    std::cerr << "--checkpoint-at covers a single run; it cannot be combined "
                 "with --arrival-sweep\n";
    return std::nullopt;
  }
  if (!opt.run.resume_path.empty()) {
    if (!opt.scenario.empty()) {
      std::cerr << "--resume reads the scenario from the snapshot; drop "
                   "--scenario\n";
      return std::nullopt;
    }
    if (opt.arrival_rate.has_value() || opt.arrival_sweep.has_value()) {
      std::cerr << "--resume restores the run's arrival process from the "
                   "snapshot; drop --arrival-rate/--arrival-sweep\n";
      return std::nullopt;
    }
    if (opt.run.latency.has_value()) {
      std::cerr << "--resume restores the run's latency model from the "
                   "snapshot; drop --latency/--loss\n";
      return std::nullopt;
    }
    if (!opt.run_shape_flags.empty()) {
      std::cerr << "--resume restores the run's population, seed and "
                   "protocol parameters from the snapshot; drop";
      for (const std::string& flag : opt.run_shape_flags) {
        std::cerr << " " << flag;
      }
      std::cerr << "\n";
      return std::nullopt;
    }
  }
  return opt;
}

/// The arrival process a CLI rate override produces: the scenario's own
/// spec (keeping its SLO/recall target) with the Poisson rate replaced.
p3q::ArrivalSpec OverrideArrivals(const p3q::Scenario& scenario, double rate) {
  p3q::ArrivalSpec spec = scenario.arrivals;
  spec.kind = p3q::ArrivalKind::kPoisson;
  spec.rate = rate;
  spec.trace.clear();
  return spec;
}

/// One run's observability attachments: the trace file/sink/tracer chain
/// and the profiler, built from the --trace*/--profile flags. Either half
/// may be absent.
struct ObsSession {
  std::ofstream trace_stream;
  std::unique_ptr<p3q::TraceSink> sink;
  std::unique_ptr<p3q::Tracer> tracer;
  std::unique_ptr<p3q::PhaseProfiler> profiler;
};

/// Opens the trace file and builds the tracer/profiler the flags ask for.
/// Returns false (with a stderr message) when the trace file cannot be
/// opened.
bool OpenObsSession(const Options& opt, ObsSession* obs) {
  if (!opt.trace_out.empty()) {
    obs->trace_stream.open(opt.trace_out,
                           std::ios::binary | std::ios::trunc);
    if (!obs->trace_stream) {
      std::cerr << "cannot open trace file: " << opt.trace_out << "\n";
      return false;
    }
    if (opt.trace_format == "chrome") {
      obs->sink = std::make_unique<p3q::ChromeTraceSink>(&obs->trace_stream);
    } else {
      obs->sink = std::make_unique<p3q::JsonlTraceSink>(&obs->trace_stream);
    }
    obs->tracer = std::make_unique<p3q::Tracer>(obs->sink.get());
    if (opt.trace_mask != 0) obs->tracer->SetKindMask(opt.trace_mask);
    if (!opt.trace_nodes.empty()) {
      obs->tracer->SetNodeFilter(opt.trace_nodes);
    }
    if (opt.trace_ring > 0) {
      obs->tracer->SetRingCapacity(static_cast<std::size_t>(opt.trace_ring));
    }
  }
  if (!opt.profile_path.empty()) {
    obs->profiler = std::make_unique<p3q::PhaseProfiler>();
  }
  return true;
}

/// Normal-exit teardown: dumps the flight-recorder ring (ring mode) or
/// closes the sink framing (stream mode), and writes the profile JSON.
/// Returns false on I/O failure.
bool CloseObsSession(const Options& opt, ObsSession* obs) {
  if (obs->tracer != nullptr) {
    obs->tracer->DumpRing();  // no-op unless in ring mode
    obs->tracer->Finish();    // no-op in ring mode
    obs->trace_stream.flush();
    if (!obs->trace_stream) {
      std::cerr << "cannot write trace file: " << opt.trace_out << "\n";
      return false;
    }
    std::cout << "trace: " << opt.trace_out << " ("
              << obs->tracer->accepted() << " events)\n";
  }
  if (obs->profiler != nullptr) {
    std::ofstream out(opt.profile_path, std::ios::binary | std::ios::trunc);
    if (!(out << p3q::PhaseProfilerToJson(*obs->profiler))) {
      std::cerr << "cannot write profile file: " << opt.profile_path << "\n";
      return false;
    }
    std::cout << "profile: " << opt.profile_path << "\n";
  }
  return true;
}

/// Runs a named scenario timeline and prints/writes its report.
int RunScenarioMode(const Options& opt) {
  using namespace p3q;
  ScenarioRunnerOptions options = opt.run;

  ObsSession obs;
  if (!OpenObsSession(opt, &obs)) return 1;
  options.tracer = obs.tracer.get();
  options.profiler = obs.profiler.get();

  const Scenario scenario = MakeScenario(opt.scenario);
  if (opt.arrival_rate.has_value()) {
    options.arrivals = OverrideArrivals(scenario, *opt.arrival_rate);
  }
  if (!options.resume_path.empty()) {
    std::cout << "resuming from: " << options.resume_path << "\n";
  }
  std::cout << "scenario: " << scenario.name << " — " << scenario.description
            << "\nusers: " << options.users << ", seed: " << options.seed
            << ", cycle scale: " << options.cycle_scale;
  if (options.arrivals.has_value()) {
    std::cout << ", arrivals: " << options.arrivals->Name();
  }
  if (options.similarity != SimilarityMetric::kCommonActions) {
    std::cout << ", similarity: " << SimilarityMetricName(options.similarity);
  }
  const LatencySpec effective_latency =
      options.latency.value_or(scenario.latency);
  if (!effective_latency.IsZero()) {
    std::cout << ", latency: " << effective_latency.Name();
  }
  std::cout << "\n\n";
  ScenarioReport report;
  try {
    report = RunScenario(scenario, options);
  } catch (const CheckpointError& e) {
    std::cerr << "checkpoint error: " << e.what() << "\n";
    return 1;
  } catch (const std::invalid_argument& e) {
    std::cerr << "invalid configuration: " << e.what() << "\n";
    return 1;
  }

  TablePrinter table({"phase", "mode", "cycles", "online", "dep", "rejoin",
                      "queries", "recall", "coverage", "success", "MiB",
                      "cyc/s"});
  for (const PhaseReport& p : report.phases) {
    table.AddRow({p.name, p.mode, TablePrinter::Fmt(p.cycles),
                  TablePrinter::Fmt(p.online_at_end),
                  TablePrinter::Fmt(p.departures),
                  TablePrinter::Fmt(p.rejoins),
                  TablePrinter::Fmt(p.queries_issued),
                  TablePrinter::Fmt(p.avg_recall),
                  TablePrinter::Fmt(p.avg_coverage),
                  TablePrinter::Fmt(p.success_ratio),
                  TablePrinter::Fmt(
                      p.traffic.TotalBytes() / 1024.0 / 1024.0, 2),
                  TablePrinter::Fmt(p.timing.cycles_per_sec, 1)});
  }
  table.Print(std::cout);
  const PhaseReport& totals = report.totals;
  std::cout << "\ntotals: " << totals.cycles << " cycles, "
            << totals.queries_issued << " queries ("
            << totals.queries_completed << " completed), "
            << totals.departures << " departures, " << totals.rejoins
            << " rejoins, " << totals.traffic.TotalBytes() / 1024.0 / 1024.0
            << " MiB\nthroughput: "
            << TablePrinter::Fmt(totals.timing.cycles_per_sec, 1)
            << " cycles/s, "
            << TablePrinter::Fmt(totals.timing.user_cycles_per_sec, 1)
            << " user-cycles/s (wall "
            << TablePrinter::Fmt(totals.timing.wall_seconds, 3) << " s)\n";
  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    const double target = scenario.phases[i].stop_at_success_ratio;
    if (target <= 0) continue;
    // -1 when the ratio stayed below the target for the whole budget.
    const PhaseReport& p = report.phases[i];
    std::cout << "cycles_to_convergence: "
              << (p.success_ratio >= target ? static_cast<long long>(p.cycles)
                                            : -1LL)
              << " (phase " << p.name << ", success ratio " << p.success_ratio
              << ", target " << target << ")\n";
  }
  if (!effective_latency.IsZero()) {
    const DeliveryStats& d = totals.delivery;
    std::cout << "delivery: " << d.enqueued << " sent, " << d.delivered
              << " delivered, " << d.dropped << " dropped, "
              << d.stale_dropped << " stale, lag p50/p95 "
              << TablePrinter::Fmt(d.LagPercentile(0.50), 1) << "/"
              << TablePrinter::Fmt(d.LagPercentile(0.95), 1)
              << " cycles, peak in flight " << d.max_in_flight << "\n";
  }
  if (report.open_loop) {
    const QueryLatencyStats& q = totals.query_latency;
    const PercentileValue p99 = q.CompletionPercentile(0.99);
    std::cout << "serving: " << q.issued << " issued, " << q.completed
              << " completed (" << q.completed_within_slo << " within SLO of "
              << report.slo_cycles << " cycles), " << q.abandoned
              << " abandoned; latency p50/p95/p99 "
              << TablePrinter::Fmt(q.CompletionPercentile(0.50).value, 1)
              << "/" << TablePrinter::Fmt(q.CompletionPercentile(0.95).value, 1)
              << "/" << TablePrinter::Fmt(p99.value, 1)
              << (p99.lower_bound ? "+" : "") << " cycles, first result p50 "
              << TablePrinter::Fmt(q.FirstResultPercentile(0.50).value, 1)
              << "\n";
  }
  if (opt.timing) {
    const MemoryReport& m = report.memory;
    const SystemMemoryStats& sys = m.system;
    const auto mib = [](double bytes) {
      return TablePrinter::Fmt(bytes / 1024.0 / 1024.0, 1);
    };
    std::cout << "memory: peak RSS " << TablePrinter::Fmt(m.peak_rss_mb, 1)
              << " MiB; arenas " << mib(sys.store.arena.used_bytes) << "/"
              << mib(sys.store.arena.reserved_bytes) << " MiB used/reserved in "
              << sys.store.arena.slabs << " slabs ("
              << sys.store.arena.live_blocks << " snapshots, "
              << sys.store.arena.recycled_slabs << " recycled); pool "
              << sys.store.pool_hits << " hits / " << sys.store.pool_misses
              << " misses; probe memos " << mib(sys.probe_memo_bytes)
              << " MiB for " << sys.probe_memo_entries
              << " entries, personal networks "
              << mib(sys.personal_network_bytes) << " MiB ("
              << mib(sys.network_index_bytes) << " MiB index), random views "
              << mib(sys.random_view_bytes) << " MiB; peak "
              << sys.peak_in_flight_messages
              << " messages in flight; message arenas "
              << mib(sys.peak_message_arena_bytes) << " MiB peak, "
              << mib(sys.message_arena_bytes)
              << " MiB held; ideal networks "
              << mib(m.ideal_network_bytes) << " MiB; heap "
              << mib(m.heap_in_use_bytes) << "/" << mib(m.heap_held_bytes)
              << " MiB in use/held\n";
  }

  if (!opt.json_path.empty() &&
      !WriteScenarioReportJson(report, opt.json_path, opt.timing)) {
    std::cerr << "cannot write JSON report: " << opt.json_path << "\n";
    return 1;
  }
  if (!opt.csv_path.empty() &&
      !WriteScenarioReportCsv(report, opt.csv_path, opt.timing)) {
    std::cerr << "cannot write CSV report: " << opt.csv_path << "\n";
    return 1;
  }
  if (!opt.json_path.empty()) {
    std::cout << "JSON report: " << opt.json_path << "\n";
  }
  if (!opt.csv_path.empty()) {
    std::cout << "CSV report: " << opt.csv_path << "\n";
  }
  if (!CloseObsSession(opt, &obs)) return 1;
  return 0;
}

/// Runs the scenario once per --arrival-sweep rate and reports per-rate
/// latency percentiles and goodput (completions within the SLO per
/// timeline cycle). Everything printed/written is deterministic in
/// (scenario, options) — byte-identical for every --threads value.
int RunSweepMode(const Options& opt) {
  using namespace p3q;
  const Scenario scenario = MakeScenario(opt.scenario);
  const SweepSpec sweep = *opt.arrival_sweep;

  // Rates print in full (the shortest text that parses back to the rate),
  // so a fine sweep's rows stay distinct.
  std::cout << "scenario: " << scenario.name << " — saturation sweep, rate "
            << FormatStrictDouble(sweep.lo) << " to "
            << FormatStrictDouble(sweep.hi) << " step "
            << FormatStrictDouble(sweep.step) << "\nusers: " << opt.run.users
            << ", seed: " << opt.run.seed << "\n\n";

  TablePrinter table({"rate", "issued", "completed", "in_slo", "abandoned",
                      "p50", "p95", "p99", "goodput/cyc"});
  std::ostringstream json;
  std::ostringstream csv;
  json << "{\n  \"scenario\": \"" << scenario.name
       << "\",\n  \"seed\": " << opt.run.seed
       << ",\n  \"users\": " << opt.run.users
       << ",\n  \"sweep\": [\n";
  csv << "rate,issued,completed,completed_within_slo,abandoned,p50,p95,p99,"
         "p99_lower_bound,first_result_p50,goodput_per_cycle\n";

  bool first = true;
  for (double rate : sweep.rates) {
    ScenarioRunnerOptions options = opt.run;
    options.arrivals = OverrideArrivals(scenario, rate);
    ScenarioReport report;
    try {
      report = RunScenario(scenario, options);
    } catch (const std::invalid_argument& e) {
      std::cerr << "invalid configuration: " << e.what() << "\n";
      return 1;
    }
    const QueryLatencyStats& q = report.totals.query_latency;
    const PercentileValue p50 = q.CompletionPercentile(0.50);
    const PercentileValue p95 = q.CompletionPercentile(0.95);
    const PercentileValue p99 = q.CompletionPercentile(0.99);
    const PercentileValue fr50 = q.FirstResultPercentile(0.50);
    const double goodput =
        report.totals.cycles == 0
            ? 0.0
            : static_cast<double>(q.completed_within_slo) /
                  static_cast<double>(report.totals.cycles);

    const std::string rate_text = FormatStrictDouble(rate);
    table.AddRow({rate_text, TablePrinter::Fmt(q.issued),
                  TablePrinter::Fmt(q.completed),
                  TablePrinter::Fmt(q.completed_within_slo),
                  TablePrinter::Fmt(q.abandoned),
                  FormatFixed(p50.value, 1), FormatFixed(p95.value, 1),
                  FormatFixed(p99.value, 1) + (p99.lower_bound ? "+" : ""),
                  FormatFixed(goodput, 3)});

    json << (first ? "" : ",\n") << "    {\"rate\": " << rate_text
         << ", \"issued\": " << q.issued << ", \"completed\": " << q.completed
         << ", \"completed_within_slo\": " << q.completed_within_slo
         << ", \"abandoned\": " << q.abandoned
         << ", \"p50\": " << FormatFixed(p50.value, 2)
         << ", \"p95\": " << FormatFixed(p95.value, 2)
         << ", \"p99\": " << FormatFixed(p99.value, 2);
    if (p99.lower_bound) json << ", \"p99_lower_bound\": true";
    json << ", \"first_result_p50\": " << FormatFixed(fr50.value, 2)
         << ", \"goodput_per_cycle\": " << FormatFixed(goodput, 4) << "}";
    csv << rate_text << "," << q.issued << "," << q.completed << ","
        << q.completed_within_slo << "," << q.abandoned << ","
        << FormatFixed(p50.value, 2) << "," << FormatFixed(p95.value, 2) << ","
        << FormatFixed(p99.value, 2) << "," << (p99.lower_bound ? 1 : 0) << ","
        << FormatFixed(fr50.value, 2) << "," << FormatFixed(goodput, 4) << "\n";
    first = false;
  }
  json << "\n  ]\n}\n";
  table.Print(std::cout);

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path, std::ios::binary | std::ios::trunc);
    if (!(out << json.str())) {
      std::cerr << "cannot write JSON report: " << opt.json_path << "\n";
      return 1;
    }
    std::cout << "\nJSON report: " << opt.json_path << "\n";
  }
  if (!opt.csv_path.empty()) {
    std::ofstream out(opt.csv_path, std::ios::binary | std::ios::trunc);
    if (!(out << csv.str())) {
      std::cerr << "cannot write CSV report: " << opt.csv_path << "\n";
      return 1;
    }
    std::cout << "CSV report: " << opt.csv_path << "\n";
  }
  return 0;
}

/// Refuses --trace-nodes ids at or past the run's population; on --resume
/// the population comes from the checkpoint header.
bool TraceNodesFitTheRun(const Options& opt) {
  for (const p3q::UserId id : opt.trace_nodes) {
    if (static_cast<std::int64_t>(id) >= opt.run.users) {
      std::cerr << "--trace-nodes: node id " << id
                << " is not a user of this run (ids must be below "
                << opt.run.users << ")\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> parsed = ParseArgs(argc, argv);
  if (!parsed) {
    PrintUsage();
    return 1;
  }
  Options opt = *parsed;
  if (opt.help) {
    PrintUsage();
    return 0;
  }
  if (opt.list_scenarios) {
    for (const std::string& name : p3q::RegisteredScenarioNames()) {
      std::cout << name << "\t" << p3q::ScenarioDescription(name) << "\n";
    }
    return 0;
  }
  if (!opt.run.resume_path.empty()) {
    // Reconstruct the original run from the snapshot's identity header; the
    // runner re-verifies every field against the payload it restores.
    try {
      opt.scenario =
          p3q::ReadScenarioCheckpointInfo(opt.run.resume_path, &opt.run);
    } catch (const p3q::CheckpointError& e) {
      std::cerr << "cannot resume: " << e.what() << "\n";
      return 1;
    }
    if (!p3q::HasScenario(opt.scenario)) {
      std::cerr << "cannot resume: checkpoint names unknown scenario '"
                << opt.scenario << "' (see --list-scenarios)\n";
      return 1;
    }
    if (!TraceNodesFitTheRun(opt)) return 1;
    return RunScenarioMode(opt);
  }
  if (!TraceNodesFitTheRun(opt)) return 1;
  return opt.arrival_sweep.has_value() ? RunSweepMode(opt)
                                       : RunScenarioMode(opt);
}
