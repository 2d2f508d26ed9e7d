// The eager mode's close-out at system scale: 600 users on seeded personal
// networks, with a steady stream of new queries so that at least 64 stay
// open in every eager cycle, each cycle's wave screens run on the worker
// pool, and its NRA close-outs run there beside the wave of refreshments.
// At 1, 2, 4 and 8 threads, under zero, fixed and lossy latency, every
// query's full history, the personal networks, the traffic and protocol
// counters (the wave's serial re-plans among them) and the JSONL trace must
// be identical, and where each commit and close-out ran is pinned.
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/eager_protocol.h"
#include "core/p3q_system.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/delivery.h"
#include "test_util.h"

namespace p3q {
namespace {

constexpr int kUsers = 600;
constexpr std::uint64_t kCycles = 14;
/// Queries issued before the first cycle, and before every later one.
/// Under zero latency a query stays open for four cycles; under the lagged
/// models the first ones finalize in the last few cycles.
constexpr int kInitialQueries = 72;
constexpr int kQueriesPerCycle = 24;
constexpr std::size_t kMinOpenQueries = 64;

struct EagerRun {
  /// Per query, per snapshot: (item, worst, best) of the top-k, the used
  /// profile count, and the completion flag.
  std::vector<std::vector<
      std::tuple<std::vector<std::tuple<ItemId, std::uint64_t, std::uint64_t>>,
                 std::size_t, bool>>>
      histories;
  /// Per query: total bytes, first-result cycle, late drops.
  std::vector<std::tuple<std::uint64_t, std::int64_t, std::uint64_t>> queries;
  std::vector<std::vector<test::NetworkRow>> networks;
  /// (messages, bytes) per message type.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> traffic;
  /// Stale drops, timeout re-issues and the wave's serial re-plans.
  std::tuple<std::uint64_t, std::uint64_t, std::uint64_t> protocol_counters;
  std::string trace;
  /// Queries finalized by the end (their close-out drained the NRA).
  std::size_t completed = 0;
  test::Schedule schedule{};
};

/// The eager engine's schedule ({longest footprint chains, pooled
/// messages, inline messages, pooled close-outs, inline close-outs}). The
/// eager mode declares no commit footprints, so every drain runs in message
/// order on the calling thread; from two threads on, every close-out goes
/// to the pool.
test::Schedule PinnedSchedule(const std::string& latency, int threads) {
  const auto schedule = [&](std::uint64_t messages, std::uint64_t closeouts) {
    return threads == 1 ? test::Schedule{0, 0, messages, 0, closeouts}
                        : test::Schedule{0, 0, messages, closeouts, 0};
  };
  if (latency == "zero") return schedule(2668, 1392);
  if (latency == "fixed:2") return schedule(1455, 3024);
  return schedule(1259, 3180);
}

/// The trace, config and seeded networks every run starts from.
struct Deployment {
  SyntheticTrace trace = test::SmallTrace(kUsers, /*seed=*/23);
  P3QConfig config = test::SmallConfig(/*network_size=*/20,
                                       /*stored_profiles=*/5);
  IdealNetworks ideal =
      ComputeIdealNetworks(trace.dataset(), config.network_size);

  /// A deterministic query for user u (seeded off u alone).
  QuerySpec QueryOf(UserId u) const {
    Rng rng(u * 7919 + 1);
    return GenerateQueryForUser(trace.dataset(), u, &rng);
  }
};

EagerRun RunEager(const Deployment& deployment, const std::string& latency,
                  int threads) {
  P3QSystem system(deployment.trace.dataset(), deployment.config,
                   std::vector<int>{}, /*seed=*/29);
  system.BootstrapRandomViews();
  system.SeedNetworks(deployment.ideal);
  system.SetThreads(threads);
  LatencySpec spec;
  EXPECT_EQ(ParseLatencySpec(latency, &spec), "");
  system.SetLatency(spec);
  std::ostringstream jsonl;
  JsonlTraceSink sink(&jsonl);
  Tracer tracer(&sink);
  system.SetTracer(&tracer);
  PhaseProfiler profiler;
  system.SetProfiler(&profiler);

  std::vector<std::uint64_t> ids;
  UserId next_querier = 0;
  const auto issue = [&](int count) {
    for (int i = 0; i < count; ++i) {
      ids.push_back(system.IssueQuery(deployment.QueryOf(next_querier)));
      next_querier = (next_querier + 7) % kUsers;
    }
  };
  issue(kInitialQueries);
  for (std::uint64_t cycle = 0; cycle < kCycles; ++cycle) {
    if (cycle > 0) issue(kQueriesPerCycle);
    std::size_t open = 0;
    for (const std::uint64_t id : ids) {
      if (!system.query(id).finalized()) ++open;
    }
    EXPECT_GE(open, kMinOpenQueries) << latency << " cycle " << cycle;
    system.RunEagerCycles(1);
  }

  EagerRun run;
  for (const std::uint64_t id : ids) {
    const ActiveQuery& query = system.query(id);
    auto& history = run.histories.emplace_back();
    for (const QueryCycleSnapshot& snapshot : query.history()) {
      std::vector<std::tuple<ItemId, std::uint64_t, std::uint64_t>> top_k;
      for (const RankedItem& r : snapshot.top_k) {
        top_k.emplace_back(r.item, r.worst, r.best);
      }
      history.emplace_back(std::move(top_k), snapshot.used_profiles,
                           snapshot.complete);
    }
    run.queries.emplace_back(query.traffic().TotalBytes(),
                             query.first_result_cycle(),
                             query.late_results_dropped());
    if (query.finalized()) ++run.completed;
  }
  run.networks = test::NetworkRows(system);
  run.traffic = test::TrafficRows(system.network().metrics());
  run.protocol_counters = {system.eager().stale_messages_dropped(),
                           system.eager().timeout_reissues(),
                           system.eager().wave_replans()};
  tracer.Finish();
  run.trace = jsonl.str();
  run.schedule = test::ScheduleOf(profiler.breakdowns().at("eager"));
  return run;
}

class EagerCloseoutSystemTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(EagerCloseoutSystemTest, IdenticalAcrossThreadCounts) {
  const Deployment deployment;
  const EagerRun base = RunEager(deployment, GetParam(), 1);
  ASSERT_FALSE(base.trace.empty());
  EXPECT_GT(base.completed, 0u);
  EXPECT_EQ(base.schedule, PinnedSchedule(GetParam(), 1));
  EXPECT_GE(base.schedule[4], kCycles * kMinOpenQueries);
  for (const int threads : {2, 4, 8}) {
    const EagerRun run = RunEager(deployment, GetParam(), threads);
    EXPECT_EQ(run.histories, base.histories) << threads << " threads";
    EXPECT_EQ(run.queries, base.queries) << threads << " threads";
    EXPECT_EQ(run.networks, base.networks) << threads << " threads";
    EXPECT_EQ(run.traffic, base.traffic) << threads << " threads";
    EXPECT_EQ(run.protocol_counters, base.protocol_counters)
        << threads << " threads";
    EXPECT_EQ(run.trace, base.trace) << threads << " threads";
    // Every cycle has at least kMinOpenQueries >= kMinPooledItems items,
    // so every close-out goes to the pool.
    EXPECT_EQ(run.schedule, PinnedSchedule(GetParam(), threads))
        << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Latencies, EagerCloseoutSystemTest,
    ::testing::Values("zero", "fixed:2", "lossy:0.15:4"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == ':' || c == '.') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace p3q
