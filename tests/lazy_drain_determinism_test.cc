// The lazy mode's delivery drain on the workers at system scale: with 1000
// users every drain holds ~1000 gossip messages, each committed once the
// earlier messages sharing a user with it have, on the worker pool. At 1, 2
// and 8 threads, under zero, fixed and lossy latency, the personal
// networks, random views, traffic counters and the JSONL trace must be
// identical, the structural invariants must hold after every cycle, and the
// drain's critical paths and where each commit ran are pinned.
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/p3q_system.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/delivery.h"
#include "test_util.h"

namespace p3q {
namespace {

constexpr int kUsers = 1000;
constexpr std::uint64_t kCycles = 8;

struct LazyRun {
  std::vector<std::vector<test::NetworkRow>> networks;
  /// Per user: (user, version) of every random-view entry.
  std::vector<std::vector<std::pair<UserId, std::uint32_t>>> views;
  /// (messages, bytes) per message type.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> traffic;
  std::string trace;
  test::Schedule schedule{};
};

/// The lazy engine's schedule ({longest footprint chains, pooled
/// messages, inline messages}); every thread count above one gives the
/// same chains, and pools every drain.
test::Schedule PinnedSchedule(const std::string& latency, int threads) {
  const bool one = threads == 1;
  if (latency == "zero") {
    return one ? test::Schedule{0, 0, 8000} : test::Schedule{174, 8000, 0};
  }
  if (latency == "fixed:2") {
    return one ? test::Schedule{0, 0, 6000} : test::Schedule{87, 6000, 0};
  }
  return one ? test::Schedule{0, 0, 5093} : test::Schedule{112, 5093, 0};
}

LazyRun RunLazy(const SyntheticTrace& trace, const std::string& latency,
                int threads) {
  const P3QConfig config = test::SmallConfig(/*network_size=*/20,
                                             /*stored_profiles=*/5);
  P3QSystem system(trace.dataset(), config, std::vector<int>{}, /*seed=*/31);
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
  system.BootstrapRandomViews();

  for (std::uint64_t cycle = 0; cycle < kCycles; ++cycle) {
    system.RunLazyCycles(1);
    for (UserId u = 0; u < static_cast<UserId>(kUsers); ++u) {
      const P3QNode& node = system.node(u);
      const std::string broken = node.network().CheckInvariants();
      EXPECT_EQ(broken, "") << "user " << u << " after cycle " << cycle;
      const RandomView& view = node.random_view();
      EXPECT_LE(view.entries().size(), view.capacity()) << "user " << u;
      for (const DigestInfo& d : view.entries()) {
        EXPECT_NE(d.user, u) << "random view of user " << u
                             << " holds its own node";
      }
    }
  }

  LazyRun run;
  run.networks = test::NetworkRows(system);
  for (UserId u = 0; u < static_cast<UserId>(kUsers); ++u) {
    auto& view = run.views.emplace_back();
    for (const DigestInfo& d : system.node(u).random_view().entries()) {
      view.emplace_back(d.user, d.version());
    }
  }
  run.traffic = test::TrafficRows(system.network().metrics());
  tracer.Finish();
  run.trace = jsonl.str();
  run.schedule = test::ScheduleOf(profiler.breakdowns().at("lazy"));
  return run;
}

class LazyDrainSystemTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LazyDrainSystemTest, IdenticalAcrossThreadCountsWithInvariants) {
  const SyntheticTrace trace = test::SmallTrace(kUsers, /*seed=*/17);
  const LazyRun base = RunLazy(trace, GetParam(), 1);
  ASSERT_FALSE(base.trace.empty());
  EXPECT_EQ(base.schedule, PinnedSchedule(GetParam(), 1));
  for (const int threads : {2, 8}) {
    const LazyRun run = RunLazy(trace, GetParam(), threads);
    EXPECT_EQ(run.networks, base.networks) << threads << " threads";
    EXPECT_EQ(run.views, base.views) << threads << " threads";
    EXPECT_EQ(run.traffic, base.traffic) << threads << " threads";
    EXPECT_EQ(run.trace, base.trace) << threads << " threads";
    EXPECT_EQ(run.schedule, PinnedSchedule(GetParam(), threads))
        << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Latencies, LazyDrainSystemTest,
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
