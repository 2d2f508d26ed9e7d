// The open-loop serving harness: arrival-spec parsing and validation,
// deterministic arrival processes, the QueryLatencyStats accumulator
// (boundary buckets, flagged lower-bound percentiles, MergeFrom/Since), the
// query-lookup hardening (std::out_of_range naming the id), and the
// scenario-level guarantees — open-loop-steady reports are byte-identical
// across thread counts under every latency model, the latency stats match a
// pinned golden, the saturation scenario's tail latency grows with the
// arrival rate, and per-phase Since() deltas sum to the run totals.
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/p3q_system.h"
#include "scenario/registry.h"
#include "scenario/report.h"
#include "scenario/runner.h"
#include "serving/arrival.h"
#include "sim/delivery.h"
#include "sim/metrics.h"
#include "test_util.h"

namespace p3q {
namespace {

// ---------------------------------------------------------------------------
// ArrivalSpec parsing and validation.
// ---------------------------------------------------------------------------

TEST(ArrivalSpecParse, RoundTripsEveryFamily) {
  for (const char* text : {"none", "poisson:2", "poisson:0.5", "trace:1,4,2",
                           "trace:0.5,3"}) {
    ArrivalSpec spec;
    ASSERT_EQ(ParseArrivalSpec(text, &spec), "") << text;
    EXPECT_EQ(spec.Name(), text);
    EXPECT_EQ(spec.Validate(), "");
  }
}

TEST(ArrivalSpecParse, RejectsMalformedSpecs) {
  for (const char* text :
       {"", "bogus", "poisson", "poisson:", "poisson:abc", "poisson:1:2",
        "poisson:-1", "trace", "trace:", "trace:1,x", "trace:1,-2",
        "none:1"}) {
    ArrivalSpec spec;
    EXPECT_NE(ParseArrivalSpec(text, &spec), "") << text;
  }
}

TEST(ArrivalSpecValidate, RejectsRatesAboveTheMaximum) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPoisson;
  spec.rate = kMaxArrivalRate;
  EXPECT_EQ(spec.Validate(), "");
  for (double rate : {std::nextafter(kMaxArrivalRate, 2 * kMaxArrivalRate),
                      1e10, 1e308}) {
    spec.rate = rate;
    EXPECT_NE(spec.Validate(), "") << rate;
  }
  spec.kind = ArrivalKind::kTrace;
  spec.trace = {1.0, 1e10};
  EXPECT_NE(spec.Validate(), "");
  for (const char* text : {"poisson:1e10", "trace:1,2e6", "poisson:1e308"}) {
    EXPECT_NE(ParseArrivalSpec(text, &spec), "") << text;
  }
  // The runner refuses such an override before the first cycle.
  ScenarioRunnerOptions options;
  options.users = 40;
  options.arrivals = ArrivalSpec{};
  options.arrivals->kind = ArrivalKind::kPoisson;
  options.arrivals->rate = 1e10;
  EXPECT_THROW(RunScenario(MakeScenario("open-loop-steady"), options),
               std::invalid_argument);
}

TEST(ArrivalProcess, DrawsAtTheMaximumRateStayInRangeAndHugeRatesSaturate) {
  // At the largest accepted rate every draw is a count near the rate.
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPoisson;
  spec.rate = kMaxArrivalRate;
  ArrivalProcess process(spec, 3);
  const double spread = 37.2 * std::sqrt(kMaxArrivalRate) + 1;
  for (std::uint64_t cycle = 0; cycle < 256; ++cycle) {
    const int n = process.ArrivalsAt(cycle);
    EXPECT_GE(n, kMaxArrivalRate - spread);
    EXPECT_LE(n, kMaxArrivalRate + spread);
  }
  // Past INT_MAX the draw saturates instead of casting out of range (which
  // read INT_MIN on x86); a NaN mean draws nothing.
  Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(rng.NextPoisson(1e10), std::numeric_limits<int>::max());
    EXPECT_EQ(rng.NextPoisson(std::numeric_limits<double>::quiet_NaN()), 0);
  }
}

TEST(ArrivalSpecValidate, ChecksSloAndRecallTarget) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPoisson;
  spec.rate = 1.0;
  EXPECT_EQ(spec.Validate(), "");
  spec.slo_cycles = 0;
  EXPECT_NE(spec.Validate(), "");
  spec.slo_cycles = 8;
  spec.recall_target = 0.0;
  EXPECT_NE(spec.Validate(), "");
  spec.recall_target = 1.5;
  EXPECT_NE(spec.Validate(), "");
  spec.recall_target = 0.9;
  EXPECT_EQ(spec.Validate(), "");
}

// ---------------------------------------------------------------------------
// ArrivalProcess determinism.
// ---------------------------------------------------------------------------

TEST(ArrivalProcess, EqualSpecAndSeedDrawIdenticalSequences) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPoisson;
  spec.rate = 2.5;
  ArrivalProcess a(spec, 42), b(spec, 42), other_seed(spec, 43);
  std::vector<int> seq_a, seq_b, seq_c;
  for (std::uint64_t cycle = 0; cycle < 64; ++cycle) {
    seq_a.push_back(a.ArrivalsAt(cycle));
    seq_b.push_back(b.ArrivalsAt(cycle));
    seq_c.push_back(other_seed.ArrivalsAt(cycle));
  }
  EXPECT_EQ(seq_a, seq_b);
  EXPECT_NE(seq_a, seq_c) << "different seeds should decorrelate";
  int total = 0;
  for (int n : seq_a) total += n;
  EXPECT_GT(total, 0);
}

TEST(ArrivalProcess, TraceZeroRateCyclesDrawNothing) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kTrace;
  spec.trace = {0.0, 5.0};
  ArrivalProcess process(spec, 7);
  for (std::uint64_t cycle = 0; cycle < 32; cycle += 2) {
    EXPECT_EQ(process.ArrivalsAt(cycle), 0) << "trace[0] = 0";
    process.ArrivalsAt(cycle + 1);  // the 5.0 slot may draw anything
  }
}

TEST(ArrivalProcess, NoneSpecNeverArrivesAndBadSpecThrows) {
  ArrivalProcess none(ArrivalSpec{}, 1);
  for (std::uint64_t cycle = 0; cycle < 8; ++cycle) {
    EXPECT_EQ(none.ArrivalsAt(cycle), 0);
  }
  ArrivalSpec bad;
  bad.kind = ArrivalKind::kPoisson;
  bad.rate = -1.0;
  EXPECT_THROW(ArrivalProcess(bad, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// QueryLatencyStats: histograms, percentiles, deltas.
// ---------------------------------------------------------------------------

TEST(QueryLatencyStatsTest, PercentilesAndSloCounting) {
  QueryLatencyStats stats;
  EXPECT_TRUE(stats.Empty());
  EXPECT_EQ(stats.CompletionPercentile(0.5).value, -1.0);
  EXPECT_FALSE(stats.CompletionPercentile(0.5).lower_bound);

  for (int i = 0; i < 6; ++i) stats.RecordCompletion(1, /*slo_cycles=*/8);
  for (int i = 0; i < 3; ++i) stats.RecordCompletion(8, /*slo_cycles=*/8);
  stats.RecordCompletion(9, /*slo_cycles=*/8);
  EXPECT_EQ(stats.completed, 10u);
  // Latency == SLO counts as within; SLO + 1 does not.
  EXPECT_EQ(stats.completed_within_slo, 9u);
  EXPECT_EQ(stats.CompletionPercentile(0.50).value, 1.0);
  EXPECT_EQ(stats.CompletionPercentile(0.90).value, 8.0);
  EXPECT_FALSE(stats.CompletionPercentile(0.90).lower_bound);
}

TEST(QueryLatencyStatsTest, FinalBucketReportsAsFlaggedLowerBound) {
  QueryLatencyStats stats;
  // Both the exact last-bucket latency and anything beyond clamp into the
  // final bucket, which is ambiguous — so its percentile is flagged.
  stats.RecordCompletion(kQueryLatencyBuckets - 1, /*slo_cycles=*/8);
  stats.RecordCompletion(100000, /*slo_cycles=*/8);
  EXPECT_EQ(stats.completion_histogram[kQueryLatencyBuckets - 1], 2u);
  const PercentileValue p = stats.CompletionPercentile(0.99);
  EXPECT_EQ(p.value, static_cast<double>(kQueryLatencyBuckets - 1));
  EXPECT_TRUE(p.lower_bound);

  // A latency one below the final bucket is counted exactly, unflagged.
  QueryLatencyStats exact;
  exact.RecordCompletion(kQueryLatencyBuckets - 2, /*slo_cycles=*/8);
  const PercentileValue q = exact.CompletionPercentile(0.99);
  EXPECT_EQ(q.value, static_cast<double>(kQueryLatencyBuckets - 2));
  EXPECT_FALSE(q.lower_bound);
}

TEST(QueryLatencyStatsTest, MergeAndSince) {
  QueryLatencyStats stats;
  stats.issued = 4;
  stats.RecordCompletion(2, 8);
  stats.RecordFirstResult(1);

  QueryLatencyStats other;
  other.issued = 3;
  other.abandoned = 1;
  other.RecordCompletion(5, 8);
  other.RecordFirstResult(3);

  QueryLatencyStats merged = stats;
  merged.MergeFrom(other);
  EXPECT_EQ(merged.issued, 7u);
  EXPECT_EQ(merged.completed, 2u);
  EXPECT_EQ(merged.abandoned, 1u);
  EXPECT_EQ(merged.completion_histogram[2], 1u);
  EXPECT_EQ(merged.completion_histogram[5], 1u);
  EXPECT_EQ(merged.first_result_histogram[3], 1u);

  const QueryLatencyStats delta = merged.Since(stats);
  EXPECT_EQ(delta.issued, 3u);
  EXPECT_EQ(delta.completed, 1u);
  EXPECT_EQ(delta.abandoned, 1u);
  EXPECT_EQ(delta.completion_histogram[2], 0u);
  EXPECT_EQ(delta.completion_histogram[5], 1u);
  EXPECT_EQ(delta.first_results, 1u);
}

// The delivery-lag mirror of the final-bucket fix: a lag landing in the
// clamped last bucket must be reported as a flagged lower bound, while the
// plain LagPercentile value is unchanged for existing callers.
TEST(DeliveryStatsTest, LagPercentileFlagsClampedFinalBucket) {
  DeliveryStats stats;
  stats.RecordDelivery(kDeliveryLagBuckets + 50);  // clamps
  const PercentileValue clamped = stats.LagPercentileBound(0.5);
  EXPECT_EQ(clamped.value, static_cast<double>(kDeliveryLagBuckets - 1));
  EXPECT_TRUE(clamped.lower_bound);
  EXPECT_EQ(stats.LagPercentile(0.5), clamped.value);

  DeliveryStats exact;
  exact.RecordDelivery(kDeliveryLagBuckets - 2);
  const PercentileValue unflagged = exact.LagPercentileBound(0.5);
  EXPECT_EQ(unflagged.value, static_cast<double>(kDeliveryLagBuckets - 2));
  EXPECT_FALSE(unflagged.lower_bound);

  DeliveryStats empty;
  EXPECT_EQ(empty.LagPercentileBound(0.5).value, -1.0);
  EXPECT_FALSE(empty.LagPercentileBound(0.5).lower_bound);
}

// ---------------------------------------------------------------------------
// Query-lookup hardening.
// ---------------------------------------------------------------------------

TEST(QueryLookup, UnknownIdThrowsOutOfRangeNamingTheId) {
  test::TestSystem env({.users = 60});
  const auto expect_throws_with_id = [&](auto&& call) {
    try {
      call();
      FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range& e) {
      EXPECT_NE(std::string(e.what()).find("987654"), std::string::npos)
          << "the message must name the id: " << e.what();
    }
  };
  expect_throws_with_id([&] { env.system->query(987654); });
  expect_throws_with_id([&] { env.system->QueryComplete(987654); });
  expect_throws_with_id([&] { env.system->QueryReached(987654); });
  expect_throws_with_id([&] { env.system->ForgetQuery(987654); });
}

TEST(QueryLookup, ForgottenQueryIdThrowsOnReuse) {
  test::TestSystem env({.users = 60});
  const std::uint64_t qid = env.system->IssueQuery(env.QueryOf(3));
  EXPECT_NO_THROW(env.system->query(qid));
  env.system->ForgetQuery(qid);
  EXPECT_THROW(env.system->query(qid), std::out_of_range);
  EXPECT_THROW(env.system->QueryComplete(qid), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Scenario model: arrivals validation.
// ---------------------------------------------------------------------------

ScenarioRunnerOptions SmallRunnerOptions(int threads = 0) {
  ScenarioRunnerOptions options;
  options.users = 80;
  options.seed = 7;
  options.cycle_scale = 0.25;
  options.threads = threads;
  return options;
}

TEST(ScenarioArrivals, LazyPhaseWithExplicitArrivalsIsRejected) {
  Scenario s = MakeScenario("open-loop-steady");
  ASSERT_EQ(s.Validate(), "");
  EXPECT_TRUE(RunScenario(s, SmallRunnerOptions()).open_loop);

  ArrivalSpec arrivals;
  arrivals.kind = ArrivalKind::kPoisson;
  arrivals.rate = 1.0;
  s.phases[0].arrivals = arrivals;  // phase 0 is the lazy converge phase
  EXPECT_NE(s.Validate(), "");

  s.phases[0].arrivals.reset();
  s.eager_gossip_budget = -1;
  EXPECT_NE(s.Validate(), "");
}

TEST(ScenarioArrivals, PhaseOverrideSilencesScenarioDefault) {
  Scenario s = MakeScenario("open-loop-steady");
  s.phases[1].arrivals = ArrivalSpec{};  // kNone override on the serve phase
  ASSERT_EQ(s.Validate(), "");
  EXPECT_FALSE(RunScenario(s, SmallRunnerOptions()).open_loop);
}

// ---------------------------------------------------------------------------
// Open-loop scenario runs.
// ---------------------------------------------------------------------------

TEST(OpenLoopSteady, ByteIdenticalAcrossThreadsUnderEveryLatencyModel) {
  const Scenario scenario = MakeScenario("open-loop-steady");
  for (const char* latency : {"zero", "fixed:2", "uniform:1:3", "lossy:0.1:3"}) {
    LatencySpec spec;
    ASSERT_EQ(ParseLatencySpec(latency, &spec), "");
    std::string reference_json, reference_csv;
    for (const int threads : {1, 2, 8}) {
      ScenarioRunnerOptions options = SmallRunnerOptions(threads);
      options.latency = spec;
      const ScenarioReport report = RunScenario(scenario, options);
      EXPECT_TRUE(report.open_loop);
      EXPECT_GT(report.totals.query_latency.issued, 0u) << latency;
      const std::string json = ScenarioReportToJson(report);
      const std::string csv = ScenarioReportToCsv(report);
      if (threads == 1) {
        reference_json = json;
        reference_csv = csv;
      } else {
        EXPECT_EQ(json, reference_json)
            << latency << " threads=" << threads
            << ": open-loop reports must not depend on the thread count";
        EXPECT_EQ(csv, reference_csv) << latency << " threads=" << threads;
      }
    }
  }
}

// Pins the open-loop-steady latency distribution at small scale. A change
// here means the serving pipeline (arrival draws, completion detection or
// latency accounting) changed behaviour — rebaseline deliberately or fix
// the regression.
TEST(OpenLoopSteady, LatencyStatsMatchGolden) {
  ScenarioRunnerOptions options;
  options.users = 120;
  options.seed = 7;
  options.cycle_scale = 0.5;
  const ScenarioReport report =
      RunScenario(MakeScenario("open-loop-steady"), options);
  const QueryLatencyStats& q = report.totals.query_latency;
  EXPECT_EQ(report.slo_cycles, 8u);
  EXPECT_EQ(q.issued, 37u);
  EXPECT_EQ(q.completed, 37u);
  EXPECT_EQ(q.completed_within_slo, 37u);
  EXPECT_EQ(q.first_results, 20u);
  EXPECT_EQ(q.abandoned, 0u);
  EXPECT_EQ(q.completion_histogram[0], 17u);
  EXPECT_EQ(q.completion_histogram[1], 10u);
  EXPECT_EQ(q.completion_histogram[2], 10u);
  EXPECT_EQ(q.CompletionPercentile(0.50).value, 1.0);
  EXPECT_EQ(q.CompletionPercentile(0.95).value, 2.0);
  EXPECT_EQ(q.CompletionPercentile(0.99).value, 2.0);
  EXPECT_EQ(q.FirstResultPercentile(0.50).value, 1.0);
}

TEST(OpenLoopSaturation, TailLatencyGrowsWithTheArrivalRate) {
  const Scenario scenario = MakeScenario("open-loop-saturation");
  ASSERT_EQ(scenario.eager_gossip_budget, 1);
  const auto run_at_rate = [&](double rate) {
    ScenarioRunnerOptions options;
    options.users = 150;
    options.seed = 3;
    options.cycle_scale = 0.5;
    ArrivalSpec arrivals = scenario.arrivals;
    arrivals.rate = rate;
    options.arrivals = arrivals;
    return RunScenario(scenario, options);
  };
  const ScenarioReport low = run_at_rate(0.5);
  const ScenarioReport high = run_at_rate(8.0);
  EXPECT_GT(high.totals.query_latency.issued, low.totals.query_latency.issued);
  // Past the capacity knee queries queue behind the per-node gossip budget,
  // so the tail latency must not improve as load rises.
  EXPECT_GE(high.totals.query_latency.CompletionPercentile(0.99).value,
            low.totals.query_latency.CompletionPercentile(0.99).value);
  EXPECT_GE(high.totals.query_latency.abandoned,
            low.totals.query_latency.abandoned);
}

TEST(OpenLoopServing, PhaseDeltasSumToRunTotals) {
  // Two serve phases at different rates; queries cross the phase boundary,
  // so completion deltas land in the phase where the completion happened.
  Scenario s = MakeScenario("open-loop-steady");
  ScenarioPhase second_serve = s.phases.back();
  second_serve.name = "serve-heavier";
  ArrivalSpec heavier = s.arrivals;
  heavier.rate = 4.0;
  second_serve.arrivals = heavier;
  s.phases.push_back(second_serve);
  ASSERT_EQ(s.Validate(), "");

  const ScenarioReport report = RunScenario(s, SmallRunnerOptions());
  ASSERT_EQ(report.phases.size(), 3u);
  QueryLatencyStats summed;
  for (const PhaseReport& p : report.phases) summed.MergeFrom(p.query_latency);
  const QueryLatencyStats& total = report.totals.query_latency;
  EXPECT_EQ(summed.issued, total.issued);
  EXPECT_EQ(summed.completed, total.completed);
  EXPECT_EQ(summed.completed_within_slo, total.completed_within_slo);
  EXPECT_EQ(summed.first_results, total.first_results);
  EXPECT_EQ(summed.completion_histogram, total.completion_histogram);
  EXPECT_EQ(summed.first_result_histogram, total.first_result_histogram);
  // Abandonment is an end-of-run event: no phase delta ever claims it, and
  // the total matches the last phase's still-open count.
  EXPECT_EQ(summed.abandoned, 0u);
  EXPECT_EQ(total.abandoned, report.phases.back().open_queries_at_end);
  // The heavier second serve phase actually served (both phases did).
  EXPECT_GT(report.phases[1].query_latency.issued, 0u);
  EXPECT_GT(report.phases[2].query_latency.issued,
            report.phases[1].query_latency.issued);
  EXPECT_EQ(report.phases[2].arrivals, "poisson:4");
}

}  // namespace
}  // namespace p3q
