// Tests for the observability layer (src/obs/): deterministic event
// tracing and wall-clock phase profiling.
//
// The load-bearing properties: traces are byte-identical across thread
// counts (the per-shard buffer + barrier-fold discipline), stable under
// every latency model, observation-only (a traced run's report equals an
// untraced run's), and the flight-recorder ring dumps the trace tail when
// an invariant throws mid-run.
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/profiler.h"
#include "obs/trace.h"
#include "scenario/registry.h"
#include "scenario/report.h"
#include "scenario/runner.h"
#include "sim/delivery.h"
#include "sim/engine.h"

namespace p3q {
namespace {

TraceEvent MakeEvent(std::uint64_t cycle, TraceEventKind kind, UserId node,
                     UserId peer = kInvalidUser) {
  TraceEvent e;
  e.cycle = cycle;
  e.kind = kind;
  e.node = node;
  e.peer = peer;
  return e;
}

// ---------------------------------------------------------------------------
// Tracer unit tests.
// ---------------------------------------------------------------------------

TEST(TracerTest, AssignsSequentialSeqsAndCountsAtAccept) {
  VectorTraceSink sink;
  Tracer tracer(&sink);
  tracer.Emit(MakeEvent(0, TraceEventKind::kQueryIssued, 1));
  tracer.Emit(MakeEvent(1, TraceEventKind::kQueryCompleted, 1));
  ASSERT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(sink.seqs(), (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(tracer.accepted(), 2u);
  EXPECT_EQ(tracer.counts()[static_cast<int>(TraceEventKind::kQueryIssued)],
            1u);
  EXPECT_EQ(tracer.counts()[static_cast<int>(TraceEventKind::kQueryCompleted)],
            1u);
}

TEST(TracerTest, KindFilterDropsUnselectedKinds) {
  VectorTraceSink sink;
  Tracer tracer(&sink);
  std::uint32_t mask = 0;
  ASSERT_TRUE(ParseTraceKindMask("query_issued", &mask).empty());
  tracer.SetKindMask(mask);
  tracer.Emit(MakeEvent(0, TraceEventKind::kGossipPlanned, 1));
  tracer.Emit(MakeEvent(0, TraceEventKind::kQueryIssued, 1));
  tracer.Emit(MakeEvent(0, TraceEventKind::kMessageDelivered, 1));
  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(sink.events()[0].kind, TraceEventKind::kQueryIssued);
  // Filtered-out events never consume a seq, so traces stay dense.
  EXPECT_EQ(tracer.accepted(), 1u);
}

TEST(TracerTest, NodeFilterMatchesNodeOrPeer) {
  VectorTraceSink sink;
  Tracer tracer(&sink);
  tracer.SetNodeFilter({3});
  tracer.Emit(MakeEvent(0, TraceEventKind::kGossipPlanned, 3, 9));   // node in
  tracer.Emit(MakeEvent(0, TraceEventKind::kGossipPlanned, 9, 3));   // peer in
  tracer.Emit(MakeEvent(0, TraceEventKind::kGossipPlanned, 9, 10));  // neither
  tracer.Emit(MakeEvent(0, TraceEventKind::kNodeDeparted, 4));       // neither
  ASSERT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(sink.events()[0].node, 3u);
  EXPECT_EQ(sink.events()[1].peer, 3u);
}

TEST(TracerTest, FoldShardsDrainsInShardOrder) {
  VectorTraceSink sink;
  Tracer tracer(&sink);
  // Emitted out of shard order, as parallel plan threads would.
  tracer.EmitShard(5, MakeEvent(0, TraceEventKind::kGossipPlanned, 50));
  tracer.EmitShard(1, MakeEvent(0, TraceEventKind::kGossipPlanned, 10));
  tracer.EmitShard(1, MakeEvent(0, TraceEventKind::kGossipPlanned, 11));
  EXPECT_TRUE(sink.events().empty());  // buffered until the barrier
  tracer.FoldShards();
  ASSERT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(sink.events()[0].node, 10u);
  EXPECT_EQ(sink.events()[1].node, 11u);
  EXPECT_EQ(sink.events()[2].node, 50u);
  EXPECT_EQ(sink.seqs(), (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(TracerTest, RingKeepsOnlyTheLastNEventsAndDumpsOnce) {
  VectorTraceSink sink;
  Tracer tracer(&sink);
  tracer.SetRingCapacity(3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    tracer.Emit(MakeEvent(i, TraceEventKind::kQueryIssued, 1));
  }
  EXPECT_TRUE(sink.events().empty());  // nothing streamed in ring mode
  tracer.DumpRing();
  ASSERT_EQ(sink.events().size(), 3u);
  // Oldest-first, original global seqs preserved.
  EXPECT_EQ(sink.seqs(), (std::vector<std::uint64_t>{2, 3, 4}));
  EXPECT_EQ(sink.events()[0].cycle, 2u);
  EXPECT_EQ(sink.events()[2].cycle, 4u);
  // Idempotent: the engine and the runner may both dump on a throw.
  tracer.DumpRing();
  EXPECT_EQ(sink.events().size(), 3u);
}

TEST(TracerTest, RingShorterThanCapacityDumpsEverything) {
  VectorTraceSink sink;
  Tracer tracer(&sink);
  tracer.SetRingCapacity(8);
  tracer.Emit(MakeEvent(0, TraceEventKind::kQueryIssued, 1));
  tracer.Emit(MakeEvent(1, TraceEventKind::kQueryCompleted, 1));
  tracer.DumpRing();
  ASSERT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(sink.seqs(), (std::vector<std::uint64_t>{0, 1}));
}

// ---------------------------------------------------------------------------
// Kind names and the filter parser.
// ---------------------------------------------------------------------------

TEST(TraceKindTest, EveryKindHasADistinctName) {
  std::vector<std::string> names;
  for (int i = 0; i < kNumTraceEventKinds; ++i) {
    const char* name = TraceEventKindName(static_cast<TraceEventKind>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "");
    for (const std::string& seen : names) {
      EXPECT_NE(seen, name) << "duplicate trace kind name";
    }
    names.push_back(name);
  }
}

TEST(TraceKindTest, ParseMaskRoundTripsEveryName) {
  for (int i = 0; i < kNumTraceEventKinds; ++i) {
    std::uint32_t mask = 0;
    const std::string error =
        ParseTraceKindMask(TraceEventKindName(static_cast<TraceEventKind>(i)),
                           &mask);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(mask, 1u << i);
  }
}

TEST(TraceKindTest, ParseMaskHandlesListsEmptyAndUnknown) {
  std::uint32_t mask = 0;
  EXPECT_TRUE(ParseTraceKindMask("", &mask).empty());
  EXPECT_EQ(mask, AllTraceKindsMask());  // empty selects everything
  EXPECT_TRUE(
      ParseTraceKindMask("gossip_planned,query_issued", &mask).empty());
  EXPECT_EQ(mask, (1u << static_cast<int>(TraceEventKind::kGossipPlanned)) |
                      (1u << static_cast<int>(TraceEventKind::kQueryIssued)));
  EXPECT_FALSE(ParseTraceKindMask("no_such_kind", &mask).empty());
  EXPECT_FALSE(ParseTraceKindMask("gossip_planned,bogus", &mask).empty());
}

// ---------------------------------------------------------------------------
// Sink formats.
// ---------------------------------------------------------------------------

TEST(TraceSinkTest, JsonlWritesOneObjectPerLine) {
  std::ostringstream out;
  JsonlTraceSink sink(&out);
  sink.Write(0, MakeEvent(3, TraceEventKind::kGossipPlanned, 5, 12));
  TraceEvent completed = MakeEvent(7, TraceEventKind::kQueryCompleted, 9);
  completed.id = 4;
  completed.value = 6;
  sink.Write(1, completed);
  EXPECT_EQ(out.str(),
            "{\"seq\":0,\"cycle\":3,\"kind\":\"gossip_planned\",\"node\":5,"
            "\"peer\":12,\"id\":0,\"value\":0}\n"
            "{\"seq\":1,\"cycle\":7,\"kind\":\"query_completed\",\"node\":9,"
            "\"peer\":-1,\"id\":4,\"value\":6}\n");
}

TEST(TraceSinkTest, ChromeFramingIsWellFormed) {
  std::ostringstream out;
  ChromeTraceSink sink(&out);
  sink.Write(0, MakeEvent(2, TraceEventKind::kQueryIssued, 7));
  sink.Write(1, MakeEvent(3, TraceEventKind::kQueryCompleted, 7));
  sink.Finish();
  const std::string text = out.str();
  EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(text.substr(text.size() - 4), "\n]}\n");
  EXPECT_NE(text.find("\"name\":\"query_issued\""), std::string::npos);
  EXPECT_NE(text.find("\"ts\":2000"), std::string::npos);  // cycle * 1000
  EXPECT_NE(text.find("\"tid\":7"), std::string::npos);
}

TEST(TraceSinkTest, ChromeFramingHandlesZeroEvents) {
  std::ostringstream out;
  ChromeTraceSink sink(&out);
  sink.Finish();
  EXPECT_EQ(out.str(), "{\"traceEvents\":[]}\n");
}

// ---------------------------------------------------------------------------
// Scenario-level determinism (the tentpole's acceptance criteria).
// ---------------------------------------------------------------------------

std::string TraceScenario(const std::string& name, int threads,
                          const std::optional<LatencySpec>& latency,
                          Tracer::KindCounts* counts = nullptr) {
  std::ostringstream out;
  JsonlTraceSink sink(&out);
  Tracer tracer(&sink);
  ScenarioRunnerOptions options;
  options.users = 60;
  options.seed = 17;
  options.cycle_scale = 0.15;
  options.threads = threads;
  options.latency = latency;
  options.tracer = &tracer;
  RunScenario(MakeScenario(name), options);
  tracer.Finish();
  if (counts != nullptr) *counts = tracer.counts();
  return out.str();
}

TEST(TraceDeterminismTest, ByteIdenticalAcrossThreadCounts) {
  Tracer::KindCounts counts{};
  const std::string t1 = TraceScenario("steady-state", 1, std::nullopt,
                                       &counts);
  ASSERT_FALSE(t1.empty());
  EXPECT_GT(counts[static_cast<int>(TraceEventKind::kGossipPlanned)], 0u);
  EXPECT_GT(counts[static_cast<int>(TraceEventKind::kGossipCommitted)], 0u);
  EXPECT_EQ(t1.rfind("{\"seq\":0,\"cycle\":0,\"kind\":\"", 0), 0u);
  EXPECT_EQ(TraceScenario("steady-state", 2, std::nullopt), t1)
      << "traces must not depend on the thread count";
  EXPECT_EQ(TraceScenario("steady-state", 8, std::nullopt), t1);
}

TEST(TraceDeterminismTest, StableUnderEveryLatencyModel) {
  for (const char* model : {"zero", "fixed:2", "uniform:1:3", "lossy:0.10:3"}) {
    LatencySpec spec;
    ASSERT_TRUE(ParseLatencySpec(model, &spec).empty()) << model;
    const std::string a = TraceScenario("steady-state", 1, spec);
    ASSERT_FALSE(a.empty()) << model;
    EXPECT_EQ(TraceScenario("steady-state", 4, spec), a)
        << "trace under " << model << " must not depend on the thread count";
  }
}

TEST(TraceDeterminismTest, RunnerEmitsLivenessEvents) {
  Tracer::KindCounts counts{};
  // diurnal departs users at night and brings them back at dawn.
  TraceScenario("diurnal", 1, std::nullopt, &counts);
  EXPECT_GT(counts[static_cast<int>(TraceEventKind::kNodeDeparted)], 0u);
  EXPECT_GT(counts[static_cast<int>(TraceEventKind::kNodeRejoined)], 0u);
}

TEST(TraceDeterminismTest, TracingIsObservationOnly) {
  ScenarioRunnerOptions options;
  options.users = 60;
  options.seed = 17;
  options.cycle_scale = 0.15;
  const Scenario scenario = MakeScenario("steady-state");
  const ScenarioReport untraced = RunScenario(scenario, options);

  std::ostringstream out;
  JsonlTraceSink sink(&out);
  Tracer tracer(&sink);
  options.tracer = &tracer;
  PhaseProfiler profiler;
  options.profiler = &profiler;
  const ScenarioReport traced = RunScenario(scenario, options);

  // Observation must never perturb the run: the default serialization of a
  // traced+profiled report is byte-identical to an untraced one.
  EXPECT_EQ(ScenarioReportToJson(traced), ScenarioReportToJson(untraced));
  EXPECT_EQ(ScenarioReportToCsv(traced), ScenarioReportToCsv(untraced));
  // The opt-in timing serialization carries the rollups — only for the
  // observed run.
  const std::string timed = ScenarioReportToJson(traced, /*include_timing=*/true);
  EXPECT_NE(timed.find("\"trace_events\""), std::string::npos);
  EXPECT_NE(timed.find("\"profile\""), std::string::npos);
  // The profile blocks carry PhaseBreakdownToJson's full field set.
  EXPECT_NE(timed.find("\"drain_levels\""), std::string::npos);
  EXPECT_NE(timed.find("\"drain_worker_messages\""), std::string::npos);
  EXPECT_NE(timed.find("\"imbalance_histogram\""), std::string::npos);
  const std::string untimed_untraced =
      ScenarioReportToJson(untraced, /*include_timing=*/true);
  EXPECT_EQ(untimed_untraced.find("\"trace_events\""), std::string::npos);
  // Phase rollup deltas sum to the run totals minus the end-of-run abandon
  // events (those land after the last phase closes).
  EXPECT_TRUE(traced.traced);
  std::uint64_t phase_sum = 0, total_sum = 0;
  for (const PhaseReport& p : traced.phases) {
    for (int i = 0; i < kNumTraceEventKinds; ++i) phase_sum += p.trace_events[i];
  }
  for (int i = 0; i < kNumTraceEventKinds; ++i) {
    total_sum += traced.totals.trace_events[i];
  }
  EXPECT_EQ(phase_sum +
                traced.totals.trace_events[static_cast<int>(
                    TraceEventKind::kQueryAbandoned)],
            total_sum);
}

TEST(TraceDeterminismTest, ProfilerMeasuresEveryEnginePhase) {
  ScenarioRunnerOptions options;
  options.users = 60;
  options.seed = 17;
  options.cycle_scale = 0.15;
  PhaseProfiler profiler;
  options.profiler = &profiler;
  RunScenario(MakeScenario("steady-state"), options);
  ASSERT_FALSE(profiler.breakdowns().empty());
  for (const auto& [label, b] : profiler.breakdowns()) {
    EXPECT_GT(b.cycles, 0u) << label;
    EXPECT_GT(b.TotalSeconds(), 0.0) << label;
    EXPECT_GT(b.shards_per_cycle, 0u) << label;
    // max/mean shard time is >= 1 by construction whenever it was measured.
    if (b.shard_plan_sum_seconds > 0.0) {
      EXPECT_GE(b.MeanImbalance(), 1.0) << label;
      EXPECT_GE(b.max_imbalance, 1.0) << label;
    }
    // TakeDue and the message teardown are measured inside the drain span.
    EXPECT_GT(b.drain_take_seconds, 0.0) << label;
    EXPECT_GT(b.drain_teardown_seconds, 0.0) << label;
    EXPECT_LE(b.drain_take_seconds + b.drain_teardown_seconds,
              b.drain_seconds)
        << label;
    PhaseBreakdown twice = b;
    twice.MergeFrom(b);
    EXPECT_DOUBLE_EQ(twice.drain_take_seconds, 2 * b.drain_take_seconds);
    EXPECT_DOUBLE_EQ(twice.Since(b).drain_teardown_seconds,
                     b.drain_teardown_seconds);
  }
  const std::string json = PhaseProfilerToJson(profiler);
  EXPECT_NE(json.find("\"plan_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"drain_take_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"drain_teardown_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"drain_wait_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"imbalance_histogram\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flight recorder: ring dump on an invariant throw.
// ---------------------------------------------------------------------------

/// Emits one event and sends one message per node per plan phase, and
/// throws from the commit of node 0's cycle-1 message — the shape of a
/// protocol invariant tripping mid-run.
class ThrowingProtocol : public CycleProtocol {
 public:
  explicit ThrowingProtocol(Tracer* tracer) : tracer_(tracer) {}

  void PlanCycle(UserId node, const PlanContext& ctx) override {
    TraceEvent e;
    e.cycle = ctx.cycle;
    e.kind = TraceEventKind::kGossipPlanned;
    e.node = node;
    tracer_->EmitShard(ctx.shard, e);
    ctx.Send(std::make_unique<DeliveryMessage>());
  }

  void CommitMessage(UserId sender, DeliveryMessage& /*message*/,
                     const CommitContext& ctx) override {
    if (ctx.cycle == 1 && sender == 0) {
      throw std::runtime_error("invariant violated");
    }
  }

 private:
  Tracer* tracer_;
};

TEST(FlightRecorderTest, EngineDumpsRingTailOnThrow) {
  VectorTraceSink sink;
  Tracer tracer(&sink);
  tracer.SetRingCapacity(4);
  // Plan events only: the queue's wire events would change the counts.
  tracer.SetKindMask(1u << static_cast<int>(TraceEventKind::kGossipPlanned));
  ThrowingProtocol protocol(&tracer);
  WorkerPool pool;
  Engine engine(/*num_nodes=*/8, /*seed=*/1, &protocol, &pool);
  engine.SetTracer(&tracer);
  EXPECT_THROW(engine.RunCycles(3), std::runtime_error);
  // Cycle 0 planned 8 events, cycle 1 planned 8 more and folded them at the
  // barrier before the commit threw; the ring dump holds the last 4.
  ASSERT_EQ(sink.events().size(), 4u);
  for (const TraceEvent& e : sink.events()) {
    EXPECT_EQ(e.cycle, 1u);
    EXPECT_EQ(e.kind, TraceEventKind::kGossipPlanned);
  }
  EXPECT_EQ(sink.events().back().node, 7u);
  EXPECT_EQ(tracer.accepted(), 16u);
}

}  // namespace
}  // namespace p3q
