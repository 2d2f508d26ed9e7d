// Scenario engine: timeline model validation, the built-in registry, node
// re-entry (rejoin) semantics, runner determinism and report serialization.
#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/profiler.h"
#include "obs/trace.h"
#include "scenario/registry.h"
#include "scenario/report.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "sim/network.h"
#include "test_util.h"

namespace p3q {
namespace {

// ---------------------------------------------------------------------------
// Network liveness helpers (satellite regressions).
// ---------------------------------------------------------------------------

TEST(NetworkLiveness, OnlineAndOfflineUsersPartitionThePopulation) {
  Network net(6);
  net.SetOnline(1, false);
  net.SetOnline(4, false);
  EXPECT_EQ(net.OnlineUsers(), (std::vector<UserId>{0, 2, 3, 5}));
  EXPECT_EQ(net.OfflineUsers(), (std::vector<UserId>{1, 4}));
  EXPECT_EQ(net.NumOnline(), 4u);
  net.SetOnline(1, true);
  EXPECT_EQ(net.OnlineUsers(), (std::vector<UserId>{0, 1, 2, 3, 5}));
  EXPECT_EQ(net.OfflineUsers(), (std::vector<UserId>{4}));
}

TEST(NetworkLiveness, FailRandomFractionClampsAboveOne) {
  // Regression: a fraction > 1 used to ask SampleWithoutReplacement for more
  // users than exist.
  Network net(20);
  Rng rng(3);
  const std::vector<UserId> left = net.FailRandomFraction(1.5, &rng);
  EXPECT_EQ(left.size(), 20u);
  EXPECT_EQ(net.NumOnline(), 0u);
}

TEST(NetworkLiveness, FailRandomFractionClampsNegative) {
  // Regression: a negative fraction used to underflow the size_t cast.
  Network net(20);
  Rng rng(3);
  const std::vector<UserId> left = net.FailRandomFraction(-0.5, &rng);
  EXPECT_TRUE(left.empty());
  EXPECT_EQ(net.NumOnline(), 20u);
}

// ---------------------------------------------------------------------------
// Node re-entry.
// ---------------------------------------------------------------------------

TEST(Rejoin, RejoinRestoresLivenessAndRebootstrapsTheRandomView) {
  test::TestSystem env({.users = 80});
  P3QSystem& system = *env.system;
  const std::vector<UserId> left = system.FailRandomFraction(0.5);
  ASSERT_FALSE(left.empty());
  const UserId back = left.front();

  // While away, the user tags new items: her node must resync on rejoin.
  system.profile_store().ApplyUpdate(back, {MakeAction(900001, 7)});
  EXPECT_NE(system.node(back).profile()->version(),
            system.profile_store().CurrentVersion(back));

  system.RejoinUser(back);
  EXPECT_TRUE(system.network().IsOnline(back));
  EXPECT_EQ(system.node(back).profile()->version(),
            system.profile_store().CurrentVersion(back));
  // The re-bootstrapped random view holds only online peers.
  const auto& entries = system.node(back).random_view().entries();
  ASSERT_FALSE(entries.empty());
  for (const DigestInfo& e : entries) {
    EXPECT_NE(e.user, back);
    EXPECT_TRUE(system.network().IsOnline(e.user));
  }
}

TEST(Rejoin, RejoinUserIsANoOpForOnlineUsers) {
  test::TestSystem env({.users = 60});
  const std::size_t online_before = env.system->network().NumOnline();
  env.system->RejoinUser(0);
  EXPECT_EQ(env.system->network().NumOnline(), online_before);
}

TEST(Rejoin, RejoinRandomFractionClampsAndRestores) {
  test::TestSystem env({.users = 60});
  P3QSystem& system = *env.system;
  system.FailRandomFraction(0.5);
  const std::size_t away = system.NumUsers() - system.network().NumOnline();
  ASSERT_GT(away, 0u);
  const std::vector<UserId> back = system.RejoinRandomFraction(2.0);
  EXPECT_EQ(back.size(), away);
  EXPECT_EQ(system.network().NumOnline(), system.NumUsers());
  EXPECT_TRUE(system.RejoinRandomFraction(-1.0).empty());
}

// ---------------------------------------------------------------------------
// Timeline model.
// ---------------------------------------------------------------------------

ScenarioPhase MixedPhase(std::uint64_t cycles) {
  ScenarioPhase p;
  p.name = "p";
  p.cycles = cycles;
  p.mode = PhaseMode::kMixed;
  return p;
}

TEST(ScenarioModel, ValidateAcceptsAWellFormedTimeline) {
  Scenario s;
  s.name = "ok";
  s.phases.push_back(MixedPhase(5));
  s.phases.back().queries_per_cycle = 1;
  ScenarioEvent e;
  e.at_cycle = 4;
  e.kind = EventKind::kDeparture;
  e.fraction = 0.5;
  s.phases.back().events.push_back(e);
  EXPECT_EQ(s.Validate(), "");
}

TEST(ScenarioModel, ValidateCatchesBadTimelines) {
  Scenario s;
  s.name = "bad";
  EXPECT_NE(s.Validate(), "");  // no phases

  s.phases.push_back(MixedPhase(0));
  EXPECT_NE(s.Validate(), "");  // zero cycles

  s.phases.back().cycles = 5;
  ScenarioEvent late;
  late.at_cycle = 5;  // == cycles: past the end
  s.phases.back().events.push_back(late);
  EXPECT_NE(s.Validate(), "");

  s.phases.back().events.clear();
  ScenarioEvent bad_fraction;
  bad_fraction.kind = EventKind::kRejoin;
  bad_fraction.fraction = 1.5;
  s.phases.back().events.push_back(bad_fraction);
  EXPECT_NE(s.Validate(), "");

  // NaN fractions fail the range checks too (they would reach
  // FailRandomFraction as an undefined size_t conversion).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const EventKind kind : {EventKind::kDeparture, EventKind::kRejoin}) {
    s.phases.back().events.clear();
    ScenarioEvent nan_fraction;
    nan_fraction.kind = kind;
    nan_fraction.fraction = nan;
    s.phases.back().events.push_back(nan_fraction);
    EXPECT_NE(s.Validate(), "") << EventKindName(kind);
  }
  s.phases.back().events.clear();
  ScenarioEvent nan_storm;
  nan_storm.kind = EventKind::kUpdateStorm;
  nan_storm.update.changed_user_fraction = nan;
  s.phases.back().events.push_back(nan_storm);
  EXPECT_NE(s.Validate(), "");

  s.phases.back().events.clear();
  for (const double target : {-0.1, 1.5, nan}) {
    s.phases.back().stop_at_success_ratio = target;
    EXPECT_NE(s.Validate(), "") << target;
  }
  s.phases.back().stop_at_success_ratio = 0;

  s.phases.back().mode = PhaseMode::kLazy;
  ScenarioEvent burst;
  burst.kind = EventKind::kQueryBurst;
  burst.count = 5;
  s.phases.back().events.push_back(burst);
  EXPECT_NE(s.Validate(), "");  // queries in a lazy-only phase
}

TEST(ScenarioModel, DutyCycleHelpers) {
  const DutyCycleFn constant = ConstantDuty(0.4);
  EXPECT_DOUBLE_EQ(constant(0, 10), 0.4);
  EXPECT_DOUBLE_EQ(constant(9, 10), 0.4);

  const DutyCycleFn diurnal = DiurnalDuty(1.0, 0.2);
  EXPECT_NEAR(diurnal(0, 21), 1.0, 1e-9);   // day at the start
  EXPECT_NEAR(diurnal(10, 21), 0.2, 1e-9);  // night at mid-phase
  EXPECT_NEAR(diurnal(20, 21), 1.0, 1e-9);  // day again at the end
  for (std::uint64_t c = 0; c < 21; ++c) {
    EXPECT_GE(diurnal(c, 21), 0.2 - 1e-9);
    EXPECT_LE(diurnal(c, 21), 1.0 + 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(ScenarioRegistry, AllBuiltInScenariosAreWellFormed) {
  const std::vector<std::string> names = RegisteredScenarioNames();
  EXPECT_EQ(names.size(), 13u);
  for (const std::string& name : names) {
    EXPECT_TRUE(HasScenario(name));
    const Scenario scenario = MakeScenario(name);
    EXPECT_EQ(scenario.name, name);
    EXPECT_EQ(scenario.Validate(), "") << name;
    EXPECT_FALSE(scenario.description.empty()) << name;
    EXPECT_EQ(ScenarioDescription(name), scenario.description);
  }
  // The catalogue the ISSUE/README promise.
  for (const char* expected :
       {"steady-state", "massive-departure", "diurnal", "flash-crowd",
        "update-storm", "churn-grind", "cold-start-query", "mixed-stress",
        "lagged-steady", "lossy-flash-crowd", "convergence"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  // The delivery-latency variants actually carry non-zero latency models.
  EXPECT_EQ(MakeScenario("lagged-steady").latency.Name(), "fixed:2");
  EXPECT_EQ(MakeScenario("lossy-flash-crowd").latency.Name(), "lossy:0.1:3");
  EXPECT_TRUE(MakeScenario("steady-state").latency.IsZero());
}

TEST(ScenarioRegistry, UnknownScenarioThrows) {
  EXPECT_FALSE(HasScenario("no-such-scenario"));
  EXPECT_THROW(MakeScenario("no-such-scenario"), std::invalid_argument);
  EXPECT_EQ(ScenarioDescription("no-such-scenario"), "");
}

// ---------------------------------------------------------------------------
// Runner.
// ---------------------------------------------------------------------------

ScenarioRunnerOptions TinyOptions(std::uint64_t seed = 11) {
  ScenarioRunnerOptions options;
  options.users = 60;
  options.seed = seed;
  options.cycle_scale = 0.2;
  return options;
}

TEST(ScenarioRunner, SameSeedProducesByteIdenticalJsonReports) {
  const Scenario scenario = MakeScenario("massive-departure");
  const std::string a =
      ScenarioReportToJson(RunScenario(scenario, TinyOptions()));
  const std::string b =
      ScenarioReportToJson(RunScenario(scenario, TinyOptions()));
  EXPECT_EQ(a, b);
  // ... and a different seed perturbs the run.
  const std::string c =
      ScenarioReportToJson(RunScenario(scenario, TinyOptions(12)));
  EXPECT_NE(a, c);
}

// Extends the equal-seed guarantee across thread counts: the sharded
// parallel engine must produce byte-identical JSON and CSV reports for
// every --threads value (the tentpole's determinism contract).
TEST(ScenarioRunner, ParallelDeterminismAcrossThreadCounts) {
  for (const char* name : {"diurnal", "mixed-stress"}) {
    ScenarioRunnerOptions options = TinyOptions();
    std::string base_json, base_csv;
    for (const int threads : {1, 2, 8}) {
      options.threads = threads;
      const ScenarioReport report = RunScenario(MakeScenario(name), options);
      const std::string json = ScenarioReportToJson(report);
      const std::string csv = ScenarioReportToCsv(report);
      if (threads == 1) {
        base_json = json;
        base_csv = csv;
      } else {
        EXPECT_EQ(json, base_json)
            << name << " at " << threads << " threads diverged (JSON)";
        EXPECT_EQ(csv, base_csv)
            << name << " at " << threads << " threads diverged (CSV)";
      }
    }
  }
}

// The delivery determinism matrix (the PR's acceptance criterion): every
// LatencyModel must produce byte-identical JSON and CSV reports for every
// --threads value, because delay/loss draws come from per-(cycle, node)
// forked streams and the queue drains in canonical (due, sender, seq) order.
TEST(ScenarioRunner, LatencyModelDeterminismMatrixAcrossThreadCounts) {
  for (const char* model : {"zero", "fixed:2", "uniform:1:3", "lossy:0.15:4"}) {
    LatencySpec spec;
    ASSERT_EQ(ParseLatencySpec(model, &spec), "");
    ScenarioRunnerOptions options = TinyOptions();
    options.latency = spec;
    std::string base_json, base_csv;
    for (const int threads : {1, 2, 8}) {
      options.threads = threads;
      const ScenarioReport report =
          RunScenario(MakeScenario("steady-state"), options);
      const std::string json = ScenarioReportToJson(report);
      const std::string csv = ScenarioReportToCsv(report);
      if (threads == 1) {
        base_json = json;
        base_csv = csv;
      } else {
        EXPECT_EQ(json, base_json)
            << model << " at " << threads << " threads diverged (JSON)";
        EXPECT_EQ(csv, base_csv)
            << model << " at " << threads << " threads diverged (CSV)";
      }
    }
  }
}

// The delivery block (and its CSV columns) appear only under a non-zero
// latency model, so ZeroLatency reports stay byte-identical to the
// pre-delivery engine's output.
TEST(ScenarioReportWriter, DeliveryBlockGatedOnNonZeroLatency) {
  const ScenarioReport zero =
      RunScenario(MakeScenario("steady-state"), TinyOptions());
  const std::string zero_json = ScenarioReportToJson(zero);
  const std::string zero_csv = ScenarioReportToCsv(zero);
  EXPECT_EQ(zero_json.find("\"delivery\""), std::string::npos);
  EXPECT_EQ(zero_json.find("\"latency\""), std::string::npos);
  EXPECT_EQ(zero_csv.find("delivery_enqueued"), std::string::npos);

  const ScenarioReport lagged =
      RunScenario(MakeScenario("lagged-steady"), TinyOptions());
  const std::string lagged_json = ScenarioReportToJson(lagged);
  const std::string lagged_csv = ScenarioReportToCsv(lagged);
  EXPECT_NE(lagged_json.find("\"latency\": \"fixed:2\""), std::string::npos);
  EXPECT_NE(lagged_json.find("\"delivery\""), std::string::npos);
  EXPECT_NE(lagged_json.find("\"lag_histogram\""), std::string::npos);
  EXPECT_NE(lagged_csv.find("delivery_enqueued"), std::string::npos);
  EXPECT_NE(lagged_csv.find("fixed:2"), std::string::npos);
  EXPECT_GT(lagged.totals.delivery.delivered, 0u);
}

// The CLI/options latency override wins over the scenario's own block.
TEST(ScenarioRunner, OptionsLatencyOverridesTheScenario) {
  ScenarioRunnerOptions options = TinyOptions();
  LatencySpec fixed1;
  fixed1.kind = LatencyKind::kFixed;
  fixed1.fixed = 1;
  options.latency = fixed1;
  const ScenarioReport report =
      RunScenario(MakeScenario("lagged-steady"), options);
  EXPECT_EQ(report.latency.Name(), "fixed:1");
  // Every delivered message lagged exactly one cycle.
  EXPECT_EQ(report.totals.delivery.lag_histogram[1],
            report.totals.delivery.delivered);
}

// Golden delivery-lag histograms: any change to the delivery queue, the
// latency-model draws or the stream derivation shows up here as a diff to
// update deliberately. lagged-steady (FixedLatency{2}) must put every
// delivery in the lag-2 bucket; lossy-flash-crowd (LossyLatency{0.10, 3})
// spreads across lags 0..3 and drops a deterministic count.
TEST(ScenarioGoldenReport, LaggedSteadyLagHistogramMatchesGolden) {
  const ScenarioReport report =
      RunScenario(MakeScenario("lagged-steady"), TinyOptions());
  const DeliveryStats& d = report.totals.delivery;
  EXPECT_EQ(d.enqueued, 660u);
  EXPECT_EQ(d.delivered, 540u);
  EXPECT_EQ(d.dropped, 0u);
  EXPECT_EQ(d.stale_dropped, 0u);
  EXPECT_EQ(d.max_in_flight, 180u);
  for (std::size_t lag = 0; lag < kDeliveryLagBuckets; ++lag) {
    EXPECT_EQ(d.lag_histogram[lag], lag == 2 ? 540u : 0u) << "lag " << lag;
  }
  EXPECT_EQ(report.phases.back().in_flight_at_end, 120u);
  // The serialized totals pin the same numbers.
  const std::string json = ScenarioReportToJson(report);
  EXPECT_NE(json.find("\"lag_histogram\": [0, 0, 540]"), std::string::npos);
}

TEST(ScenarioGoldenReport, LossyFlashCrowdLagHistogramMatchesGolden) {
  const ScenarioReport report =
      RunScenario(MakeScenario("lossy-flash-crowd"), TinyOptions());
  const DeliveryStats& d = report.totals.delivery;
  EXPECT_EQ(d.enqueued, 540u);
  EXPECT_EQ(d.delivered, 461u);
  EXPECT_EQ(d.dropped, 60u);
  EXPECT_EQ(d.max_in_flight, 141u);
  EXPECT_EQ(d.lag_histogram[0], 131u);
  EXPECT_EQ(d.lag_histogram[1], 117u);
  EXPECT_EQ(d.lag_histogram[2], 106u);
  EXPECT_EQ(d.lag_histogram[3], 107u);
  EXPECT_EQ(d.LagPercentile(0.50), 1.0);
  EXPECT_EQ(d.LagPercentile(0.95), 3.0);
}

TEST(ScenarioModel, ValidateCatchesBadLatency) {
  Scenario s;
  s.name = "bad-latency";
  s.phases.push_back(MixedPhase(5));
  s.latency.kind = LatencyKind::kUniform;
  s.latency.lo = 3;
  s.latency.hi = 1;
  EXPECT_NE(s.Validate(), "");
}

// The thread count is visible ONLY in the opt-in timing block, so default
// reports stay byte-stable while --timing runs are attributable.
TEST(ScenarioRunner, ThreadCountAnnotatedOnlyInTimingBlock) {
  ScenarioRunnerOptions options = TinyOptions();
  options.threads = 2;
  const ScenarioReport report =
      RunScenario(MakeScenario("steady-state"), options);
  EXPECT_EQ(report.totals.timing.threads, 2);
  const std::string without = ScenarioReportToJson(report);
  EXPECT_EQ(without.find("\"threads\""), std::string::npos);
  const std::string with = ScenarioReportToJson(report, /*include_timing=*/true);
  EXPECT_NE(with.find("\"threads\": 2"), std::string::npos);
  const std::string csv = ScenarioReportToCsv(report, /*include_timing=*/true);
  EXPECT_NE(csv.find(",threads,"), std::string::npos);
}

TEST(ScenarioRunner, InvalidThreadCountThrows) {
  ScenarioRunnerOptions options = TinyOptions();
  options.threads = -1;
  EXPECT_THROW(RunScenario(MakeScenario("steady-state"), options),
               std::invalid_argument);
}

TEST(ScenarioRunner, DiurnalTimelineDepartsAndRejoins) {
  ScenarioRunnerOptions options = TinyOptions();
  options.cycle_scale = 0.5;
  const ScenarioReport report =
      RunScenario(MakeScenario("diurnal"), options);
  EXPECT_GT(report.totals.departures, 0u);
  EXPECT_GT(report.totals.rejoins, 0u);
  // The duty cycle returns to 1.0: everyone is back at the end.
  EXPECT_EQ(report.phases.back().online_at_end, report.users);
}

TEST(ScenarioRunner, FlashCrowdBurstsIssueQueries) {
  const ScenarioReport report =
      RunScenario(MakeScenario("flash-crowd"), TinyOptions());
  ASSERT_EQ(report.phases.size(), 2u);
  EXPECT_EQ(report.phases[0].queries_issued, 0);
  EXPECT_GT(report.phases[1].queries_issued, 0);
  EXPECT_GE(report.phases[1].avg_recall, 0.0);
}

TEST(ScenarioRunner, PerPhaseTrafficSumsToTheTotal) {
  const ScenarioReport report =
      RunScenario(MakeScenario("mixed-stress"), TinyOptions());
  std::uint64_t messages = 0, bytes = 0;
  for (const PhaseReport& p : report.phases) {
    messages += p.traffic.TotalMessages();
    bytes += p.traffic.TotalBytes();
  }
  EXPECT_EQ(messages, report.totals.traffic.TotalMessages());
  EXPECT_EQ(bytes, report.totals.traffic.TotalBytes());
  EXPECT_GT(messages, 0u);
}

// The CI convergence gate reads the registered scenario: a change to its
// target or budget, or to anything convergence depends on, shows up here.
TEST(ScenarioRunner, ConvergenceScenarioPinsTheCiGate) {
  ScenarioRunnerOptions options;
  options.users = 400;
  options.seed = 1;
  const Scenario scenario = MakeScenario("convergence");
  const ScenarioReport zero = RunScenario(scenario, options);
  ASSERT_EQ(zero.phases.size(), 1u);
  EXPECT_EQ(zero.phases[0].cycles, 46u);
  EXPECT_NEAR(zero.phases[0].success_ratio, 0.901574, 1e-6);
  EXPECT_EQ(zero.totals.cycles, 46u);

  options.latency = LatencySpec{LatencyKind::kFixed, /*fixed=*/2};
  const ScenarioReport lagged = RunScenario(scenario, options);
  ASSERT_EQ(lagged.phases.size(), 1u);
  EXPECT_EQ(lagged.phases[0].cycles, 67u);
  EXPECT_NEAR(lagged.phases[0].success_ratio, 0.900652, 1e-6);
}

// A target the networks never reach leaves the phase its whole budget.
TEST(ScenarioRunner, UnreachedStopTargetRunsTheWholeBudget) {
  Scenario s;
  s.name = "unreached";
  ScenarioPhase phase;
  phase.name = "converge";
  phase.cycles = 6;
  phase.mode = PhaseMode::kLazy;
  phase.stop_at_success_ratio = 0.99;
  s.phases.push_back(phase);
  ScenarioRunnerOptions options = TinyOptions();
  options.cycle_scale = 1.0;
  const ScenarioReport report = RunScenario(s, options);
  ASSERT_EQ(report.phases.size(), 1u);
  EXPECT_EQ(report.phases[0].cycles, 6u);
  EXPECT_LT(report.phases[0].success_ratio, 0.99);
}

// A reached target ends the phase early: events scheduled past that cycle
// never fire, and the next phase starts right away.
TEST(ScenarioRunner, ReachedStopTargetSkipsTheRestOfThePhase) {
  Scenario s;
  s.name = "reached";
  ScenarioPhase converge;
  converge.name = "converge";
  converge.cycles = 200;
  converge.mode = PhaseMode::kLazy;
  converge.stop_at_success_ratio = 0.5;
  ScenarioEvent late;
  late.at_cycle = 199;
  late.kind = EventKind::kDeparture;
  late.fraction = 0.5;
  converge.events.push_back(late);
  s.phases.push_back(converge);
  s.phases.push_back(MixedPhase(3));
  ScenarioRunnerOptions options = TinyOptions();
  options.cycle_scale = 1.0;
  const ScenarioReport report = RunScenario(s, options);
  ASSERT_EQ(report.phases.size(), 2u);
  EXPECT_LT(report.phases[0].cycles, 199u);
  EXPECT_GE(report.phases[0].success_ratio, 0.5);
  EXPECT_EQ(report.phases[0].departures, 0u);
  EXPECT_EQ(report.phases[1].cycles, 3u);
  EXPECT_EQ(report.totals.cycles, report.phases[0].cycles + 3);
}

TEST(ScenarioRunner, InvalidScenarioOrOptionsThrow) {
  Scenario empty;
  empty.name = "empty";
  EXPECT_THROW(RunScenario(empty, TinyOptions()), std::invalid_argument);

  ScenarioRunnerOptions bad_users = TinyOptions();
  bad_users.users = 0;
  EXPECT_THROW(RunScenario(MakeScenario("steady-state"), bad_users),
               std::invalid_argument);

  ScenarioRunnerOptions bad_scale = TinyOptions();
  bad_scale.cycle_scale = 0;
  EXPECT_THROW(RunScenario(MakeScenario("steady-state"), bad_scale),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Report serialization.
// ---------------------------------------------------------------------------

TEST(ScenarioReportWriter, TimingIsExcludedUnlessRequested) {
  const ScenarioReport report =
      RunScenario(MakeScenario("steady-state"), TinyOptions());
  const std::string without = ScenarioReportToJson(report);
  EXPECT_EQ(without.find("wall_seconds"), std::string::npos);
  const std::string with =
      ScenarioReportToJson(report, /*include_timing=*/true);
  EXPECT_NE(with.find("wall_seconds"), std::string::npos);
  EXPECT_NE(with.find("user_cycles_per_sec"), std::string::npos);
}

TEST(ScenarioReportWriter, CsvHasHeaderPhaseAndTotalRows) {
  const ScenarioReport report =
      RunScenario(MakeScenario("steady-state"), TinyOptions());
  const std::string csv = ScenarioReportToCsv(report);
  const std::size_t lines =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, report.phases.size() + 2);  // header + phases + total
  EXPECT_EQ(csv.rfind("scenario,phase,mode,cycles", 0), 0u);
  EXPECT_NE(csv.find(",total,-,"), std::string::npos)
      << "totals row missing";
  EXPECT_NE(csv.find("random_view_gossip_messages"), std::string::npos);
}

/// The comma-separated fields of one CSV line.
std::vector<std::string> CsvFields(const std::string& line) {
  std::vector<std::string> fields;
  std::stringstream ss(line);
  for (std::string field; std::getline(ss, field, ',');) {
    fields.push_back(field);
  }
  return fields;
}

TEST(ScenarioReportWriter, TimingMemoryBlockListsItsKeysInOrder) {
  const ScenarioReport report =
      RunScenario(MakeScenario("steady-state"), TinyOptions());
  const std::string json =
      ScenarioReportToJson(report, /*include_timing=*/true);
  const std::size_t open = json.find("\"memory\": {");
  ASSERT_NE(open, std::string::npos);
  const std::size_t close = json.find('}', open);
  ASSERT_NE(close, std::string::npos);
  // Every value in the block is a number, so the quoted strings after the
  // opening brace are its keys.
  std::vector<std::string> keys;
  for (std::size_t at = json.find('"', json.find('{', open));
       at != std::string::npos && at < close;
       at = json.find('"', json.find('"', at + 1) + 1)) {
    keys.push_back(json.substr(at + 1, json.find('"', at + 1) - at - 1));
  }
  const std::vector<std::string> expected = {
      "arena_reserved_bytes",   "arena_used_bytes",
      "arena_slabs",            "arena_live_blocks",
      "arena_recycled_slabs",   "pool_hits",
      "pool_misses",            "probe_memo_bytes",
      "probe_memo_entries",     "personal_network_bytes",
      "network_index_bytes",    "random_view_bytes",
      "peak_in_flight_messages", "peak_message_arena_bytes",
      "message_arena_bytes",    "ideal_network_bytes",
      "peak_rss_mb",            "heap_held_bytes",
      "heap_in_use_bytes"};
  EXPECT_EQ(keys, expected);
  EXPECT_NE(json.find("\"arena_reserved_bytes\": " +
                      std::to_string(
                          report.memory.system.store.arena.reserved_bytes)),
            std::string::npos);
  EXPECT_GT(report.memory.system.store.arena.reserved_bytes, 0u);
}

TEST(ScenarioReportWriter, TimingCsvHeaderAndTotalRowAreUnchanged) {
  // An open-loop run under latency, traced and profiled: every optional
  // column group is on.
  std::ostringstream trace;
  JsonlTraceSink sink(&trace);
  Tracer tracer(&sink);
  PhaseProfiler profiler;
  ScenarioRunnerOptions options = TinyOptions();
  options.cycle_scale = 0.1;
  options.latency = LatencySpec{LatencyKind::kFixed, /*fixed=*/1};
  options.tracer = &tracer;
  options.profiler = &profiler;
  const ScenarioReport report =
      RunScenario(MakeScenario("open-loop-steady"), options);
  const std::string csv = ScenarioReportToCsv(report, /*include_timing=*/true);

  std::vector<std::string> lines;
  std::stringstream ss(csv);
  for (std::string line; std::getline(ss, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), report.phases.size() + 2);
  EXPECT_EQ(
      lines.front(),
      "scenario,phase,mode,cycles,online_at_end,departures,rejoins,"
      "queries_issued,queries_completed,avg_recall,avg_coverage,"
      "success_ratio,total_messages,total_bytes,random_view_gossip_messages,"
      "random_view_gossip_bytes,lazy_digest_proposal_messages,"
      "lazy_digest_proposal_bytes,lazy_common_items_messages,"
      "lazy_common_items_bytes,lazy_full_profile_messages,"
      "lazy_full_profile_bytes,direct_profile_fetch_messages,"
      "direct_profile_fetch_bytes,eager_query_forward_messages,"
      "eager_query_forward_bytes,eager_query_return_messages,"
      "eager_query_return_bytes,partial_result_messages,"
      "partial_result_bytes,latency_model,delivery_enqueued,"
      "delivery_delivered,delivery_dropped,delivery_stale_dropped,"
      "in_flight_at_end,lag_p50,lag_p95,arrivals,ql_issued,ql_completed,"
      "ql_within_slo,ql_first_results,ql_abandoned,ql_open_at_end,ql_p50,"
      "ql_p95,ql_p99,ql_p99_lower_bound,ql_first_result_p50,threads,"
      "wall_seconds,cycles_per_sec,user_cycles_per_sec,queries_per_sec,"
      "slo_queries_per_sec,ev_gossip_planned,ev_gossip_committed,"
      "ev_message_enqueued,ev_message_delivered,ev_message_dropped,"
      "ev_message_stale,ev_query_issued,ev_query_first_result,"
      "ev_query_completed,ev_query_abandoned,ev_node_departed,"
      "ev_node_rejoined,prof_plan_s,prof_barrier_s,prof_drain_s,prof_end_s,"
      "prof_shard_imbalance");

  // The total row: its labels, the run's sums, and the last phase's
  // end-of-run columns.
  const std::vector<std::string> header = CsvFields(lines.front());
  const std::vector<std::string> last = CsvFields(lines[lines.size() - 2]);
  const std::vector<std::string> total = CsvFields(lines.back());
  ASSERT_EQ(total.size(), header.size());
  ASSERT_EQ(last.size(), header.size());
  const auto column = [&](const std::string& name) {
    return static_cast<std::size_t>(
        std::find(header.begin(), header.end(), name) - header.begin());
  };
  EXPECT_EQ(total[column("phase")], "total");
  EXPECT_EQ(total[column("mode")], "-");
  EXPECT_EQ(total[column("arrivals")], "-");
  EXPECT_EQ(total[column("ql_open_at_end")], "0");
  EXPECT_EQ(total[column("cycles")], std::to_string(report.totals.cycles));
  for (const char* name : {"online_at_end", "avg_recall", "avg_coverage",
                           "success_ratio", "in_flight_at_end"}) {
    EXPECT_EQ(total[column(name)], last[column(name)]) << name;
  }
}

// A hand-built miniature timeline pinning the whole pipeline end to end:
// generator -> system -> runner -> JSON writer. Any intentional change to
// the trace generator, protocols, runner sampling or report format shows up
// here as a diff to update deliberately.
TEST(ScenarioGoldenReport, MiniatureTimelineMatchesGolden) {
  Scenario mini;
  mini.name = "mini";
  mini.description = "golden regression timeline";
  ScenarioPhase converge;
  converge.name = "converge";
  converge.cycles = 3;
  converge.mode = PhaseMode::kLazy;
  mini.phases.push_back(converge);
  ScenarioPhase serve;
  serve.name = "serve";
  serve.cycles = 2;
  serve.mode = PhaseMode::kMixed;
  serve.queries_per_cycle = 1;
  ScenarioEvent departure;
  departure.at_cycle = 1;
  departure.kind = EventKind::kDeparture;
  departure.fraction = 0.25;
  serve.events.push_back(departure);
  mini.phases.push_back(serve);
  ASSERT_EQ(mini.Validate(), "");

  ScenarioRunnerOptions options;
  options.users = 40;
  options.seed = 9;
  options.stored_profiles = 3;  // c < s so eager gossip is exercised
  const std::string json =
      ScenarioReportToJson(RunScenario(mini, options));
  const std::string golden = R"GOLDEN({
  "scenario": "mini",
  "description": "golden regression timeline",
  "seed": 9,
  "users": 40,
  "config": {"network_size": 10, "stored_profiles": 3, "top_k": 10, "alpha": 0.500000},
  "phases": [
    {
      "name": "converge",
      "mode": "lazy",
      "cycles": 3,
      "online_at_end": 40,
      "departures": 0,
      "rejoins": 0,
      "queries": {"issued": 0, "completed": 0, "avg_recall": -1.000000, "avg_coverage": 0.000000},
      "success_ratio": 0.677500,
      "traffic": {
        "total": {"messages": 1436, "bytes": 12651848},
        "by_type": {
          "random_view_gossip": {"messages": 240, "bytes": 6768960},
          "lazy_digest_proposal": {"messages": 158, "bytes": 1612756},
          "lazy_common_items": {"messages": 347, "bytes": 495028},
          "lazy_full_profile": {"messages": 50, "bytes": 443412},
          "direct_profile_fetch": {"messages": 641, "bytes": 3331692},
          "eager_query_forward": {"messages": 0, "bytes": 0},
          "eager_query_return": {"messages": 0, "bytes": 0},
          "partial_result": {"messages": 0, "bytes": 0}
        }
      }
    },
    {
      "name": "serve",
      "mode": "mixed",
      "cycles": 2,
      "online_at_end": 30,
      "departures": 10,
      "rejoins": 0,
      "queries": {"issued": 2, "completed": 0, "avg_recall": 0.850000, "avg_coverage": 0.400000},
      "success_ratio": 0.860000,
      "traffic": {
        "total": {"messages": 624, "bytes": 6496096},
        "by_type": {
          "random_view_gossip": {"messages": 140, "bytes": 3917792},
          "lazy_digest_proposal": {"messages": 148, "bytes": 1512760},
          "lazy_common_items": {"messages": 167, "bytes": 285604},
          "lazy_full_profile": {"messages": 21, "bytes": 143856},
          "direct_profile_fetch": {"messages": 142, "bytes": 635220},
          "eager_query_forward": {"messages": 2, "bytes": 224},
          "eager_query_return": {"messages": 2, "bytes": 32},
          "partial_result": {"messages": 2, "bytes": 608}
        }
      }
    }
  ],
  "totals": {
    "cycles": 5,
    "departures": 10,
    "rejoins": 0,
    "queries": {"issued": 2, "completed": 0},
    "traffic": {
      "total": {"messages": 2060, "bytes": 19147944},
      "by_type": {
        "random_view_gossip": {"messages": 380, "bytes": 10686752},
        "lazy_digest_proposal": {"messages": 306, "bytes": 3125516},
        "lazy_common_items": {"messages": 514, "bytes": 780632},
        "lazy_full_profile": {"messages": 71, "bytes": 587268},
        "direct_profile_fetch": {"messages": 783, "bytes": 3966912},
        "eager_query_forward": {"messages": 2, "bytes": 224},
        "eager_query_return": {"messages": 2, "bytes": 32},
        "partial_result": {"messages": 2, "bytes": 608}
      }
    }
  }
}
)GOLDEN";
  EXPECT_EQ(json, golden);
}

}  // namespace
}  // namespace p3q
