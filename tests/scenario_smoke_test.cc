// Smoke-runs every registered scenario at tiny scale under ctest.
//
// The parameterized suite enumerates ScenarioRegistry at runtime (the same
// generated-list idea as bench_smoke_test: the test list is derived from the
// registry itself, so a newly registered scenario is smoke-tested
// automatically and the suite cannot drift). A second suite drives the
// p3q_sim CLI end to end: `--scenario=diurnal --json=...` must run a
// multi-phase timeline with departures and rejoins and produce byte-identical
// JSON reports across two equal-seed runs (the PR's acceptance criterion).
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/registry.h"
#include "scenario/report.h"
#include "scenario/runner.h"

#ifndef P3Q_BIN_DIR
#error "P3Q_BIN_DIR must be defined by the build"
#endif

namespace p3q {
namespace {

class ScenarioSmoke : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioSmoke, RunsCleanAtTinyScale) {
  ScenarioRunnerOptions options;
  options.users = 60;
  options.seed = 17;
  options.cycle_scale = 0.15;

  const Scenario scenario = MakeScenario(GetParam());
  const ScenarioReport report = RunScenario(scenario, options);

  ASSERT_EQ(report.phases.size(), scenario.phases.size());
  EXPECT_EQ(report.scenario, scenario.name);
  EXPECT_EQ(report.users, 60u);
  EXPECT_GT(report.totals.cycles, 0u);
  EXPECT_GT(report.totals.traffic.TotalMessages(), 0u);
  for (const PhaseReport& p : report.phases) {
    EXPECT_GE(p.cycles, 1u);
    EXPECT_LE(p.online_at_end, report.users);
    EXPECT_GE(p.success_ratio, 0.0);
    EXPECT_LE(p.success_ratio, 1.0);
    if (p.queries_issued > 0) {
      EXPECT_GE(p.avg_recall, 0.0);
      EXPECT_LE(p.avg_recall, 1.0);
      EXPECT_LE(p.avg_coverage, 1.0);
    }
  }
  // Both emitters must serialize every scenario without tripping.
  EXPECT_FALSE(ScenarioReportToJson(report).empty());
  EXPECT_FALSE(ScenarioReportToCsv(report).empty());
}

std::string SanitizeName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '-') c = '_';
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ScenarioSmoke, ::testing::ValuesIn(RegisteredScenarioNames()),
    [](const auto& info) { return SanitizeName(info.param); });

// ---------------------------------------------------------------------------
// p3q_sim CLI end to end.
// ---------------------------------------------------------------------------

int RunCli(const std::string& args,
           const std::string& redirect = " > /dev/null 2>&1") {
  // Quote the binary path: the build dir may contain spaces.
  // Appended piecewise: GCC 12 misreports a -Wrestrict overlap for the
  // equivalent `"literal" + std::string(...)` chain.
  std::string cmd = "\"";
  cmd += P3Q_BIN_DIR;
  cmd += "/p3q_sim\" ";
  cmd += args;
  cmd += redirect;
  const int status = std::system(cmd.c_str());
  EXPECT_NE(status, -1);
  EXPECT_TRUE(WIFEXITED(status)) << cmd << " killed by signal";
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Runs p3q_sim expecting a clean refusal: a non-zero exit whose stderr
/// contains `message`.
void ExpectRefusal(const std::string& args, const std::string& message) {
  // ctest runs tests in parallel processes: one stderr file per test.
  const std::string err_path =
      ::testing::TempDir() + "/p3q_refusal_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".txt";
  const int status = RunCli(args, " > /dev/null 2> \"" + err_path + "\"");
  const std::string err = ReadFileOrEmpty(err_path);
  std::remove(err_path.c_str());
  EXPECT_NE(status, 0) << args;
  EXPECT_NE(err.find(message), std::string::npos)
      << args << " printed: " << err;
}

TEST(P3qSimScenarioCli, ListScenariosExitsCleanly) {
  EXPECT_EQ(RunCli("--list-scenarios"), 0);
}

TEST(P3qSimScenarioCli, UnknownScenarioFails) {
  EXPECT_NE(RunCli("--scenario=no-such-scenario"), 0);
  // A scenario generates its own trace; there is no flag to load one.
  EXPECT_NE(RunCli("--scenario=steady-state --input-trace=/nonexistent.tsv"),
            0);
}

TEST(P3qSimScenarioCli, ScenarioIsRequiredAndClassicFlagsAreGone) {
  EXPECT_NE(RunCli("--users=60"), 0);
  const std::string args =
      "--scenario=convergence --users=60 --cycle-scale=0.2 ";
  EXPECT_EQ(RunCli(args), 0);
  // Each flag of the removed classic pipeline is an unknown flag now.
  for (const char* flag : {"--converge=0.9", "--lazy-cycles=5", "--lambda=1",
                           "--input-trace=x.tsv"}) {
    EXPECT_NE(RunCli(args + flag), 0) << flag;
  }
}

TEST(P3qSimScenarioCli, DiurnalJsonReportIsCompleteAndDeterministic) {
  const std::string dir = ::testing::TempDir();
  const std::string path_a = dir + "/p3q_diurnal_a.json";
  const std::string path_b = dir + "/p3q_diurnal_b.json";
  const std::string args =
      "--scenario=diurnal --users=80 --cycle-scale=0.25 --seed=5 --json=";
  ASSERT_EQ(RunCli(args + "\"" + path_a + "\""), 0);
  ASSERT_EQ(RunCli(args + "\"" + path_b + "\""), 0);

  const std::string json = ReadFileOrEmpty(path_a);
  ASSERT_FALSE(json.empty());
  // Multi-phase timeline with both departures and rejoins...
  EXPECT_NE(json.find("\"scenario\": \"diurnal\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"day-night-day\""), std::string::npos);
  const std::size_t totals = json.find("\"totals\"");
  ASSERT_NE(totals, std::string::npos);
  auto totals_value = [&](const std::string& key) {
    const std::string needle = "\"" + key + "\": ";
    const std::size_t at = json.find(needle, totals);
    EXPECT_NE(at, std::string::npos) << key;
    return at == std::string::npos
               ? -1L
               : std::atol(json.c_str() + at + needle.size());
  };
  EXPECT_GT(totals_value("departures"), 0);
  EXPECT_GT(totals_value("rejoins"), 0);
  // ... with per-MessageType traffic, recall and (deterministic) reports.
  EXPECT_NE(json.find("\"random_view_gossip\""), std::string::npos);
  EXPECT_NE(json.find("\"eager_query_forward\""), std::string::npos);
  EXPECT_NE(json.find("\"avg_recall\""), std::string::npos);
  EXPECT_EQ(json, ReadFileOrEmpty(path_b))
      << "two equal-seed runs must produce byte-identical reports";

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(P3qSimScenarioCli, SimilarityFlagIsStrictAndSelectsTheMetric) {
  // Strict parsing: unknown names, prefixes, case variants and empty
  // values are all rejected. Each runs on a valid tiny scenario, so a lax
  // parser that accepted the value would run it and exit 0.
  const std::string tiny =
      "--scenario=steady-state --users=60 --cycle-scale=0.15 ";
  EXPECT_NE(RunCli(tiny + "--similarity=bogus"), 0);
  EXPECT_NE(RunCli(tiny + "--similarity=jac"), 0);
  EXPECT_NE(RunCli(tiny + "--similarity=Jaccard"), 0);
  EXPECT_NE(RunCli(tiny + "--similarity="), 0);
  EXPECT_NE(RunCli(tiny + "--similarity"), 0);

  // Every valid metric runs, in scenario mode too, and the chosen metric
  // changes the report (jaccard ranks different neighbours than raw common
  // actions, so traffic/recall shift), while equal-seed runs of the same
  // metric stay byte-identical.
  const std::string dir = ::testing::TempDir();
  const std::string common_a = dir + "/p3q_sim_common_a.json";
  const std::string common_b = dir + "/p3q_sim_common_b.json";
  const std::string jaccard = dir + "/p3q_sim_jaccard.json";
  const std::string args =
      "--scenario=steady-state --users=60 --cycle-scale=0.2 --seed=5 ";
  ASSERT_EQ(RunCli(args + "--similarity=common --json=\"" + common_a + "\""),
            0);
  ASSERT_EQ(RunCli(args + "--similarity=common_actions --json=\"" + common_b +
                   "\""),
            0);
  ASSERT_EQ(RunCli(args + "--similarity=jaccard --json=\"" + jaccard + "\""),
            0);
  ASSERT_EQ(RunCli(args + "--similarity=cosine"), 0);
  ASSERT_EQ(RunCli(args + "--similarity=overlap"), 0);

  const std::string common_json = ReadFileOrEmpty(common_a);
  ASSERT_FALSE(common_json.empty());
  // "common" and its alias are the same metric; the default-metric report
  // matches what an unflagged run produces.
  EXPECT_EQ(common_json, ReadFileOrEmpty(common_b));
  EXPECT_NE(common_json, ReadFileOrEmpty(jaccard))
      << "the similarity metric must actually reach the protocol";
  std::remove(common_a.c_str());
  std::remove(common_b.c_str());
  std::remove(jaccard.c_str());
}

TEST(P3qSimScenarioCli, LatencyFlagIsValidatedAndDeterministic) {
  const std::string tiny =
      "--scenario=steady-state --users=60 --cycle-scale=0.15 ";
  EXPECT_NE(RunCli(tiny + "--latency=bogus"), 0);
  EXPECT_NE(RunCli(tiny + "--loss=1.5"), 0);
  EXPECT_NE(RunCli(tiny + "--latency=fixed:2 --loss=0.1"), 0);

  const std::string dir = ::testing::TempDir();
  const std::string path_a = dir + "/p3q_lagged_a.json";
  const std::string path_b = dir + "/p3q_lagged_b.json";
  const std::string args =
      "--scenario=steady-state --latency=uniform:1:3 --users=60 "
      "--cycle-scale=0.2 --seed=5 --json=";
  ASSERT_EQ(RunCli(args + "\"" + path_a + "\""), 0);
  ASSERT_EQ(RunCli(args + "\"" + path_b + "\""), 0);
  const std::string json = ReadFileOrEmpty(path_a);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"latency\": \"uniform:1:3\""), std::string::npos);
  EXPECT_NE(json.find("\"delivery\""), std::string::npos);
  EXPECT_EQ(json, ReadFileOrEmpty(path_b))
      << "equal-seed lagged runs must produce byte-identical reports";
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(P3qSimScenarioCli, NumericFlagsRejectTrailingGarbage) {
  // std::from_chars full-string validation: a numeric flag must consume the
  // whole value, so partial parses that atof/atoi silently accepted fail.
  // Each bad value follows a valid tiny scenario, so a lax parser would run
  // it and exit 0; a repeated flag fails at its bad value.
  const std::string tiny =
      "--scenario=steady-state --users=60 --cycle-scale=0.15 ";
  EXPECT_NE(RunCli(tiny + "--cycle-scale=abc"), 0);
  EXPECT_NE(RunCli(tiny + "--cycle-scale=1.5x"), 0);
  EXPECT_NE(RunCli(tiny + "--cycle-scale="), 0);
  EXPECT_NE(RunCli(tiny + "--users=1e3"), 0);
  EXPECT_NE(RunCli(tiny + "--users=100abc"), 0);
  EXPECT_NE(RunCli(tiny + "--threads=2x"), 0);
  EXPECT_NE(RunCli(tiny + "--seed=-1"), 0);
  EXPECT_NE(RunCli(tiny + "--k=3.5"), 0);
  // Quoted, so the shell hands p3q_sim the whole value.
  EXPECT_NE(RunCli(tiny + "--alpha='0.5;rm'"), 0);
  // The exact same values without the garbage still parse.
  EXPECT_EQ(RunCli(tiny + "--threads=2 --seed=5"), 0);
}

TEST(P3qSimScenarioCli, ArrivalFlagsAreValidated) {
  // Arrival overrides only make sense against a scenario timeline.
  EXPECT_NE(RunCli("--arrival-rate=2"), 0);
  EXPECT_NE(RunCli("--arrival-sweep=1:4:1"), 0);
  // A single rate and a sweep are mutually exclusive, and both are strict.
  EXPECT_NE(RunCli("--scenario=open-loop-steady --arrival-rate=2 "
                   "--arrival-sweep=1:4:1"),
            0);
  EXPECT_NE(RunCli("--scenario=open-loop-steady --arrival-rate=-1"), 0);
  EXPECT_NE(RunCli("--scenario=open-loop-steady --arrival-rate=2x"), 0);
  EXPECT_NE(RunCli("--scenario=open-loop-steady --arrival-sweep=1:4"), 0);
  EXPECT_NE(RunCli("--scenario=open-loop-steady --arrival-sweep=4:1:1"), 0);
  EXPECT_NE(RunCli("--scenario=open-loop-steady --arrival-sweep=1:4:0"), 0);
}

TEST(P3qSimScenarioCli, ArrivalRateAboveTheMaximumIsRefused) {
  // Poisson(1e10) used to cast past INT_MAX (INT_MIN on x86), so the run
  // exited 0 having issued no query.
  const std::string run =
      "--scenario=open-loop-steady --users=60 --cycle-scale=0.1 ";
  ExpectRefusal(run + "--arrival-rate=1e10", "--arrival-rate must be in");
  ExpectRefusal(run + "--arrival-rate=1000000.5", "--arrival-rate must be in");
}

TEST(P3qSimScenarioCli, SweepThatCannotEndIsRefused) {
  // 1e17 + 1 == 1e17 in double: `rate += step` never advanced, and the
  // sweep ran forever.
  const std::string run = "--scenario=open-loop-saturation --users=60 ";
  ExpectRefusal(run + "--arrival-sweep=1e17:2e17:1", "HI must be <=");
  ExpectRefusal(run + "--arrival-sweep=1e5:1e6:1e-12",
                "does not advance the rate");
  ExpectRefusal(run + "--arrival-sweep=0:1000:0.5", "more than 1000 rates");
}

TEST(P3qSimScenarioCli, TraceNodeIdsThatDoNotFitAUserIdAreRefused) {
  // 4294967296 used to wrap to node 0 through static_cast<UserId>.
  const std::string trace = ::testing::TempDir() + "/p3q_trace_nodes.jsonl";
  const std::string run = "--scenario=steady-state --users=60 "
                          "--cycle-scale=0.1 --trace=\"" + trace + "\" ";
  ExpectRefusal(run + "--trace-nodes=4294967296", "does not fit a user id");
  ExpectRefusal(run + "--trace-nodes=1,18446744073709551615",
                "does not fit a user id");
  std::remove(trace.c_str());
}

TEST(P3qSimScenarioCli, TraceNodeIdsPastTheRunsUsersAreRefused) {
  // An id at or past --users used to run and write an empty trace.
  const std::string dir = ::testing::TempDir();
  const std::string trace = dir + "/p3q_trace_nodes_bound.jsonl";
  const std::string ckpt = dir + "/p3q_trace_nodes_bound.ckpt";
  const std::string run = "--scenario=steady-state --users=60 "
                          "--cycle-scale=0.1 --trace=\"" + trace + "\" ";
  ExpectRefusal(run + "--trace-nodes=100", "must be below 60");
  ExpectRefusal(run + "--trace-nodes=3,60", "must be below 60");
  ASSERT_EQ(RunCli(run + "--trace-nodes=59"), 0);
  EXPECT_FALSE(ReadFileOrEmpty(trace).empty());
  // On --resume the bound is the checkpoint's population.
  ASSERT_EQ(RunCli("--scenario=steady-state --users=60 --cycle-scale=0.1 "
                   "--checkpoint-at=2 --checkpoint=\"" + ckpt + "\""),
            0);
  const std::string resume =
      "--resume=\"" + ckpt + "\" --trace=\"" + trace + "\" ";
  ExpectRefusal(resume + "--trace-nodes=60", "must be below 60");
  EXPECT_EQ(RunCli(resume + "--trace-nodes=59"), 0);
  std::remove(trace.c_str());
  std::remove(ckpt.c_str());
}

TEST(P3qSimScenarioCli, ArrivalRateRunEmitsDeterministicQueryLatency) {
  const std::string dir = ::testing::TempDir();
  const std::string path_a = dir + "/p3q_openloop_a.json";
  const std::string path_b = dir + "/p3q_openloop_b.json";
  const std::string args =
      "--scenario=open-loop-steady --arrival-rate=1.5 --users=80 "
      "--cycle-scale=0.25 --seed=5 ";
  ASSERT_EQ(RunCli(args + "--threads=1 --json=\"" + path_a + "\""), 0);
  ASSERT_EQ(RunCli(args + "--threads=8 --json=\"" + path_b + "\""), 0);
  const std::string json = ReadFileOrEmpty(path_a);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"slo_cycles\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"query_latency\""), std::string::npos);
  EXPECT_NE(json.find("\"arrivals\": \"poisson:1.5\""), std::string::npos);
  EXPECT_EQ(json, ReadFileOrEmpty(path_b))
      << "open-loop reports must not depend on the thread count";
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(P3qSimScenarioCli, TraceIsByteIdenticalAcrossThreadsAndObservationOnly) {
  const std::string dir = ::testing::TempDir();
  const std::string trace1 = dir + "/p3q_trace_t1.jsonl";
  const std::string trace2 = dir + "/p3q_trace_t2.jsonl";
  const std::string trace8 = dir + "/p3q_trace_t8.jsonl";
  const std::string plain_json = dir + "/p3q_trace_plain.json";
  const std::string traced_json = dir + "/p3q_trace_traced.json";
  const std::string args =
      "--scenario=steady-state --users=60 --cycle-scale=0.2 --seed=5 ";
  ASSERT_EQ(RunCli(args + "--threads=1 --trace=\"" + trace1 + "\" --json=\"" +
                   traced_json + "\""),
            0);
  ASSERT_EQ(RunCli(args + "--threads=2 --trace=\"" + trace2 + "\""), 0);
  ASSERT_EQ(RunCli(args + "--threads=8 --trace=\"" + trace8 + "\""), 0);
  ASSERT_EQ(RunCli(args + "--threads=4 --json=\"" + plain_json + "\""), 0);

  const std::string trace = ReadFileOrEmpty(trace1);
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.rfind("{\"seq\":0,", 0), 0u);
  EXPECT_NE(trace.find("\"kind\":\"gossip_planned\""), std::string::npos);
  EXPECT_EQ(trace, ReadFileOrEmpty(trace2))
      << "traces must not depend on the thread count";
  EXPECT_EQ(trace, ReadFileOrEmpty(trace8));
  // Tracing is observation-only: the default report of a traced run equals
  // an untraced run's byte for byte.
  const std::string plain = ReadFileOrEmpty(plain_json);
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain, ReadFileOrEmpty(traced_json));

  std::remove(trace1.c_str());
  std::remove(trace2.c_str());
  std::remove(trace8.c_str());
  std::remove(plain_json.c_str());
  std::remove(traced_json.c_str());
}

TEST(P3qSimScenarioCli, ObservabilityFlagsAreValidated) {
  const std::string tiny =
      "--scenario=steady-state --users=60 --cycle-scale=0.15 ";
  EXPECT_NE(RunCli(tiny + "--trace-format=xml"), 0);
  EXPECT_NE(RunCli(tiny + "--trace-filter=query_issued"), 0);  // needs --trace
  EXPECT_NE(RunCli(tiny + "--trace-ring=100"), 0);             // needs --trace
  EXPECT_NE(RunCli("--scenario=steady-state --trace=/tmp/t.jsonl "
                   "--trace-filter=no_such_kind"),
            0);
  EXPECT_NE(RunCli("--scenario=steady-state --trace-nodes=1,2x"), 0);
  EXPECT_NE(RunCli("--progress=10"), 0);  // no --scenario
  EXPECT_NE(RunCli("--scenario=open-loop-saturation --arrival-sweep=1:2:1 "
                   "--trace=/tmp/t.jsonl"),
            0);
}

TEST(P3qSimScenarioCli, ChromeTraceAndProfileAreWellFormed) {
  const std::string dir = ::testing::TempDir();
  const std::string trace = dir + "/p3q_chrome.json";
  const std::string profile = dir + "/p3q_profile.json";
  ASSERT_EQ(RunCli("--scenario=steady-state --users=60 --cycle-scale=0.2 "
                   "--seed=5 --trace=\"" +
                   trace + "\" --trace-format=chrome --profile=\"" + profile +
                   "\""),
            0);
  const std::string chrome = ReadFileOrEmpty(trace);
  ASSERT_FALSE(chrome.empty());
  EXPECT_EQ(chrome.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(chrome.substr(chrome.size() - 4), "\n]}\n");
  EXPECT_NE(chrome.find("\"ph\":\"i\""), std::string::npos);
  const std::string prof = ReadFileOrEmpty(profile);
  ASSERT_FALSE(prof.empty());
  EXPECT_NE(prof.find("\"engines\""), std::string::npos);
  EXPECT_NE(prof.find("\"plan_seconds\""), std::string::npos);
  EXPECT_NE(prof.find("\"mean_imbalance\""), std::string::npos);
  std::remove(trace.c_str());
  std::remove(profile.c_str());
}

TEST(P3qSimScenarioCli, ArrivalSweepWritesTheSweepReport) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/p3q_sweep.json";
  ASSERT_EQ(RunCli("--scenario=open-loop-saturation --arrival-sweep=1:3:2 "
                   "--users=80 --cycle-scale=0.25 --seed=5 --json=\"" +
                   path + "\""),
            0);
  const std::string json = ReadFileOrEmpty(path);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"rate\": 1,"), std::string::npos);
  EXPECT_NE(json.find("\"rate\": 3,"), std::string::npos);
  EXPECT_NE(json.find("\"goodput_per_cycle\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(P3qSimScenarioCli, FineArrivalSweepKeepsItsRatesApart) {
  // Rates used to print with two decimals, so 0.001 ... 0.004 all read
  // "0.00" in the JSON, the CSV and the table.
  const std::string dir = ::testing::TempDir();
  const std::string json_path = dir + "/p3q_fine_sweep.json";
  const std::string csv_path = dir + "/p3q_fine_sweep.csv";
  ASSERT_EQ(RunCli("--scenario=open-loop-saturation --users=40 "
                   "--cycle-scale=0.1 --arrival-sweep=0.001:0.004:0.001 "
                   "--json=\"" + json_path + "\" --csv=\"" + csv_path + "\""),
            0);
  const std::string json = ReadFileOrEmpty(json_path);
  std::vector<double> rates;
  for (std::size_t at = json.find("\"rate\": "); at != std::string::npos;
       at = json.find("\"rate\": ", at + 1)) {
    rates.push_back(std::stod(json.substr(at + 8)));
  }
  ASSERT_EQ(rates.size(), 4u) << json;
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(rates[static_cast<std::size_t>(i)], 0.001 * (i + 1), 1e-12);
  }
  const std::string csv = ReadFileOrEmpty(csv_path);
  EXPECT_NE(csv.find("\n0.001,"), std::string::npos) << csv;
  EXPECT_NE(csv.find("\n0.004,"), std::string::npos) << csv;
  std::remove(json_path.c_str());
  std::remove(csv_path.c_str());
}

// --resume reads the run's shape from the snapshot: it runs with the
// options that do not change results, and every flag that would (even with
// the snapshot's own value) is an error rather than silently ignored.
TEST(P3qSimScenarioCli, ResumeRejectsRunShapeFlags) {
  const std::string dir = ::testing::TempDir();
  const std::string ckpt = dir + "/p3q_cli_resume.ckpt";
  const std::string straight = dir + "/p3q_cli_straight.json";
  const std::string resumed = dir + "/p3q_cli_resumed.json";
  const std::string run =
      "--scenario=steady-state --users=60 --cycle-scale=0.15 ";
  ASSERT_EQ(RunCli(run + "--json=\"" + straight + "\""), 0);
  ASSERT_EQ(RunCli(run + "--checkpoint-at=2 --checkpoint=\"" + ckpt + "\""),
            0);
  const std::string resume = "--resume=\"" + ckpt + "\" ";
  ASSERT_EQ(RunCli(resume + "--threads=2 --json=\"" + resumed + "\""), 0);
  EXPECT_EQ(ReadFileOrEmpty(resumed), ReadFileOrEmpty(straight));
  for (const char* flag :
       {"--users=60", "--users=999", "--seed=1", "--seed=7", "--s=3", "--c=3",
        "--alpha=0.9", "--k=5", "--similarity=jaccard", "--cycle-scale=0.15",
        "--scenario=steady-state", "--latency=fixed:2", "--loss=0.1",
        "--arrival-rate=2"}) {
    EXPECT_NE(RunCli(resume + flag), 0) << flag;
  }
  std::remove(ckpt.c_str());
  std::remove(straight.c_str());
  std::remove(resumed.c_str());
}

// p3q_sim and a RunScenario caller write the same header for the same
// run, so either resumes the other's checkpoint: a default-size run records
// network size 0, as the runner's default does.
TEST(P3qSimScenarioCli, DefaultRunCheckpointResumesThroughTheRunner) {
  const std::string ckpt = ::testing::TempDir() + "/p3q_cli_default_size.ckpt";
  ASSERT_EQ(RunCli("--scenario=diurnal --users=100 --cycle-scale=0.2 "
                   "--checkpoint-at=3 --checkpoint=\"" +
                   ckpt + "\""),
            0);
  ScenarioRunnerOptions saved;
  ReadScenarioCheckpointInfo(ckpt, &saved);
  EXPECT_EQ(saved.network_size, 0);

  const Scenario scenario = MakeScenario("diurnal");
  ScenarioRunnerOptions options;
  options.users = 100;
  options.cycle_scale = 0.2;
  const std::string straight =
      ScenarioReportToJson(RunScenario(scenario, options));
  options.resume_path = ckpt;
  EXPECT_EQ(ScenarioReportToJson(RunScenario(scenario, options)), straight);
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace p3q
