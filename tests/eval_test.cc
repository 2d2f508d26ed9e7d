// Tests for eval/: recall, success ratio, AUR, discovery and experiment
// runner helpers.
#include <gtest/gtest.h>

#include "baseline/ideal_network.h"
#include "core/p3q_system.h"
#include "dataset/generator.h"
#include "eval/experiment.h"
#include "eval/metrics_eval.h"
#include "eval/recall.h"

#include "test_util.h"

namespace p3q {
namespace {

TEST(RecallTest, BasicCases) {
  EXPECT_DOUBLE_EQ(RecallAtK({1, 2, 3}, {1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(RecallAtK({1, 2, 9}, {1, 2, 3}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(RecallAtK({}, {1, 2}), 0.0);
  EXPECT_DOUBLE_EQ(RecallAtK({7}, {}), 1.0);  // nothing to miss
  EXPECT_DOUBLE_EQ(RecallAtK({5, 6}, {1, 2}), 0.0);
}

TEST(EvalMetricsTest, SuccessRatioOneWhenSeededIdeal) {
  const SyntheticTrace trace = test::SmallTrace(100, 3);
  P3QConfig config;
  config.network_size = 12;
  config.stored_profiles = 4;
  P3QSystem system(trace.dataset(), config, {}, 5);
  const IdealNetworks ideal = ComputeIdealNetworks(trace.dataset(), 12);
  EXPECT_DOUBLE_EQ(AverageSuccessRatio(system, ideal), 0.0);
  system.SeedNetworks(ideal);
  EXPECT_DOUBLE_EQ(AverageSuccessRatio(system, ideal), 1.0);
}

TEST(EvalMetricsTest, AurZeroAfterBatchOneAfterReseed) {
  const SyntheticTrace trace = test::SmallTrace(100, 7);
  P3QConfig config;
  config.network_size = 12;
  config.stored_profiles = 4;
  P3QSystem system(trace.dataset(), config, {}, 9);
  system.SeedNetworks(ComputeIdealNetworks(trace.dataset(), 12));

  Rng rng(11);
  const UpdateBatch batch = trace.MakeUpdateBatch(UpdateConfig{}, &rng);
  ASSERT_GT(batch.NumChangedUsers(), 0u);
  system.ApplyUpdateBatch(batch);
  const auto changed = ChangedUsers(batch);
  // Replicas of changed users are all stale right after the batch.
  EXPECT_DOUBLE_EQ(AverageUpdateRate(system, changed), 0.0);
  // Users storing no changed profile do not count (vacuous AUR = 1).
  EXPECT_DOUBLE_EQ(AverageUpdateRate(system, {}), 1.0);
}

TEST(EvalMetricsTest, AurOverSubsetOfUsers) {
  const SyntheticTrace trace = test::SmallTrace(80, 13);
  P3QConfig config;
  config.network_size = 10;
  config.stored_profiles = 3;
  P3QSystem system(trace.dataset(), config, {}, 15);
  system.SeedNetworks(ComputeIdealNetworks(trace.dataset(), 10));
  Rng rng(17);
  const UpdateBatch batch = trace.MakeUpdateBatch(UpdateConfig{}, &rng);
  system.ApplyUpdateBatch(batch);
  const auto changed = ChangedUsers(batch);
  const double all = AverageUpdateRate(system, changed);
  const double subset =
      AverageUpdateRate(system, changed, std::vector<UserId>{0, 1, 2});
  EXPECT_GE(all, 0.0);
  EXPECT_GE(subset, 0.0);
  EXPECT_LE(subset, 1.0);
}

TEST(EvalMetricsTest, ProfilesToUpdateMatchesReplicaOverlap) {
  const SyntheticTrace trace = test::SmallTrace(80, 19);
  P3QConfig config;
  config.network_size = 10;
  config.stored_profiles = 5;
  P3QSystem system(trace.dataset(), config, {}, 21);
  system.SeedNetworks(ComputeIdealNetworks(trace.dataset(), 10));
  Rng rng(23);
  const UpdateBatch batch = trace.MakeUpdateBatch(UpdateConfig{}, &rng);
  const auto changed = ChangedUsers(batch);
  const std::vector<std::size_t> counts =
      ProfilesToUpdatePerUser(system, changed);
  ASSERT_EQ(counts.size(), 80u);
  for (UserId u = 0; u < 80; ++u) {
    std::size_t expected = 0;
    for (const NetworkEntry& e : system.node(u).network().entries()) {
      if (e.HasStoredProfile() && changed.count(e.user)) ++expected;
    }
    EXPECT_EQ(counts[u], expected);
    EXPECT_LE(counts[u], 5u);
  }
}

TEST(EvalMetricsTest, CompleteNewNetworkDetection) {
  const SyntheticTrace trace = test::SmallTrace(60, 29);
  P3QConfig config;
  config.network_size = 8;
  config.stored_profiles = 3;
  P3QSystem system(trace.dataset(), config, {}, 31);
  const IdealNetworks before = ComputeIdealNetworks(trace.dataset(), 8);
  system.SeedNetworks(before);
  // No change: every user trivially has the complete "new" network.
  EXPECT_DOUBLE_EQ(FractionWithCompleteNewNetwork(system, before, before), 1.0);

  // After an update batch, ideal networks change; nodes were seeded with the
  // OLD ideal so discovery is incomplete for at least the changed portion.
  Rng rng(37);
  UpdateConfig heavy;
  heavy.changed_user_fraction = 0.5;
  heavy.mean_new_actions = 40;
  const UpdateBatch batch = trace.MakeUpdateBatch(heavy, &rng);
  system.ApplyUpdateBatch(batch);
  const IdealNetworks after =
      ComputeIdealNetworks(system.profile_store(), 8);
  const double fraction =
      FractionWithCompleteNewNetwork(system, before, after);
  EXPECT_GE(fraction, 0.0);
  EXPECT_LT(fraction, 1.0);
}

TEST(EvalMetricsTest, StoredProfileLengthMatchesNetwork) {
  const SyntheticTrace trace = test::SmallTrace(50, 41);
  P3QConfig config;
  config.network_size = 8;
  config.stored_profiles = 4;
  P3QSystem system(trace.dataset(), config, {}, 43);
  system.SeedNetworks(ComputeIdealNetworks(trace.dataset(), 8));
  for (UserId u = 0; u < 50; ++u) {
    EXPECT_EQ(StoredProfileLength(system, u),
              system.node(u).network().StoredProfileActions());
  }
}

TEST(ExperimentEnvTest, ProvidesQueriesAndSystems) {
  const ExperimentEnv env(120, 15, 47);
  EXPECT_EQ(env.dataset().NumUsers(), 120u);
  EXPECT_GT(env.queries().size(), 100u);
  EXPECT_EQ(env.SampleQueries(10).size(), 10u);
  EXPECT_EQ(env.SampleQueries(100000).size(), env.queries().size());

  P3QConfig config;
  config.stored_profiles = 5;
  auto seeded = env.MakeSeededSystem(config, {});
  EXPECT_EQ(seeded->config().network_size, 15);
  EXPECT_GT(seeded->node(0).network().size(), 0u);
  auto cold = env.MakeColdSystem(config, {});
  EXPECT_EQ(cold->node(0).network().size(), 0u);
  EXPECT_FALSE(cold->node(0).random_view().Empty());
}

TEST(ExperimentRunnerTest, RecallCurveEndsAtOneOnStaticSystem) {
  const ExperimentEnv env(120, 15, 53);
  P3QConfig config;
  config.stored_profiles = 4;
  auto system = env.MakeSeededSystem(config, {});
  const std::vector<QuerySpec> queries = env.SampleQueries(20);
  const std::vector<double> curve =
      AverageRecallCurve(system.get(), queries, 20);
  ASSERT_EQ(curve.size(), 21u);
  EXPECT_GT(curve[0], 0.1);   // local results already useful
  EXPECT_GT(curve[20], 0.99); // everything found by cycle 20
  EXPECT_GT(curve[20], curve[0]);
}

TEST(ExperimentRunnerTest, QueryBatchStatsAreConsistent) {
  const ExperimentEnv env(120, 15, 59);
  P3QConfig config;
  config.stored_profiles = 4;
  auto system = env.MakeSeededSystem(config, {});
  const std::vector<QuerySpec> queries = env.SampleQueries(15);
  const std::vector<QueryRunStats> stats =
      RunQueryBatch(system.get(), queries, 25);
  ASSERT_EQ(stats.size(), queries.size());
  for (const QueryRunStats& s : stats) {
    EXPECT_GE(s.users_reached, 1u);
    EXPECT_TRUE(s.complete);
    EXPECT_DOUBLE_EQ(s.final_recall, 1.0);
    EXPECT_GE(s.cycles_to_complete, 0);
    EXPECT_LE(s.cycles_to_complete, 25);
    EXPECT_GT(s.traffic.partial_result_bytes + s.traffic.forwarded_list_bytes,
              0u);
  }
  // All query state was forgotten.
  EXPECT_TRUE(system->AllQueryIds().empty());
}

}  // namespace
}  // namespace p3q
