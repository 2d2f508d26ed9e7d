// Whole-system integration tests: configuration validation, determinism,
// heterogeneous storage, and the full lazy -> eager -> dynamism pipeline.
#include <gtest/gtest.h>

#include "baseline/centralized_topk.h"
#include "baseline/ideal_network.h"
#include "core/analysis.h"
#include "core/p3q_system.h"
#include "dataset/generator.h"
#include "dataset/query_gen.h"
#include "dataset/storage_dist.h"
#include "eval/metrics_eval.h"
#include "eval/recall.h"
#include "profile/score_kernel.h"
#include "profile/similarity.h"

#include "test_util.h"

namespace p3q {
namespace {

TEST(ConfigTest, ValidatesRanges) {
  P3QConfig config;
  EXPECT_TRUE(config.Validate().empty());
  config.alpha = 1.5;
  EXPECT_FALSE(config.Validate().empty());
  config.alpha = 0.5;
  config.stored_profiles = config.network_size + 1;
  EXPECT_FALSE(config.Validate().empty());
  config.stored_profiles = 1;
  config.top_k = 0;
  EXPECT_FALSE(config.Validate().empty());
}

TEST(SystemTest, InvalidConfigThrows) {
  const SyntheticTrace trace = test::SmallTrace(30, 1);
  P3QConfig config;
  config.alpha = -1;
  EXPECT_THROW(P3QSystem(trace.dataset(), config, {}, 1),
               std::invalid_argument);
}

TEST(SystemTest, WrongStorageVectorThrows) {
  const SyntheticTrace trace = test::SmallTrace(30, 1);
  P3QConfig config;
  EXPECT_THROW(P3QSystem(trace.dataset(), config, std::vector<int>{1, 2}, 1),
               std::invalid_argument);
}

TEST(SystemTest, HeterogeneousStorageAssignmentRespected) {
  const SyntheticTrace trace = test::SmallTrace(50, 2);
  P3QConfig config;
  config.network_size = 20;
  Rng rng(3);
  const StorageDistribution dist =
      StorageDistribution::TruncatedPoisson(1.0, 0.02);  // buckets scaled tiny
  const std::vector<int> assigned = dist.AssignAll(50, &rng);
  P3QSystem system(trace.dataset(), config, assigned, 5);
  for (UserId u = 0; u < 50; ++u) {
    EXPECT_EQ(system.node(u).network().storage_capacity(),
              std::max(1, std::min(assigned[u], config.network_size)));
  }
}

TEST(SystemTest, FullyDeterministicEndToEnd) {
  const SyntheticTrace trace = test::SmallTrace(100, 5);
  auto run = [&trace]() {
    P3QConfig config;
    config.network_size = 12;
    config.stored_profiles = 4;
    P3QSystem system(trace.dataset(), config, {}, 77);
    system.BootstrapRandomViews();
    system.RunLazyCycles(10);
    Rng rng(9);
    const QuerySpec spec = GenerateQueryForUser(trace.dataset(), 3, &rng);
    const std::uint64_t qid = system.IssueQuery(spec);
    system.RunEagerCycles(8);
    std::vector<ItemId> items = system.query(qid).CurrentTopKItems();
    return std::tuple(system.metrics().TotalBytes(),
                      system.metrics().TotalMessages(), items);
  };
  EXPECT_EQ(run(), run());
}

TEST(SystemTest, DifferentSeedsProduceDifferentRuns) {
  const SyntheticTrace trace = test::SmallTrace(100, 5);
  P3QConfig config;
  config.network_size = 12;
  config.stored_profiles = 4;
  auto total = [&](std::uint64_t seed) {
    P3QSystem system(trace.dataset(), config, {}, seed);
    system.BootstrapRandomViews();
    system.RunLazyCycles(10);
    return system.metrics().TotalBytes();
  };
  EXPECT_NE(total(1), total(2));
}

TEST(SystemTest, ScoreBetweenIsSymmetricAndOriented) {
  const SyntheticTrace trace = test::SmallTrace(40, 7);
  for (const SimilarityMetric metric :
       {SimilarityMetric::kCommonActions, SimilarityMetric::kJaccard,
        SimilarityMetric::kCosine, SimilarityMetric::kOverlap}) {
    P3QConfig config;
    config.similarity = metric;
    const P3QSystem system(trace.dataset(), config, {}, 9);
    const Profile& a = *system.profile_store().Get(3);
    const Profile& b = *system.profile_store().Get(17);
    const PairSimilarity ab = KernelPairSimilarity(a, b);
    const PairSimilarity ba = KernelPairSimilarity(b, a);
    ASSERT_GT(ab.common_items, 0u);
    EXPECT_EQ(ab.score, ba.score);
    EXPECT_EQ(ab.common_items, ba.common_items);
    EXPECT_EQ(ab.a_actions_on_common, ba.b_actions_on_common);
    EXPECT_EQ(ab.b_actions_on_common, ba.a_actions_on_common);
    EXPECT_EQ(system.ScoreBetween(a, b), system.ScoreBetween(b, a))
        << SimilarityMetricName(metric);
    EXPECT_EQ(system.ScoreBetween(a, b),
              SimilarityScore(metric, ab.score, a.Length(), b.Length()))
        << SimilarityMetricName(metric);
  }
}

TEST(SystemTest, ColdStartToAccurateQueryPipeline) {
  // The paper's full story on a small scale: converge lazily, query eagerly,
  // reach the exact personalized result.
  const SyntheticTrace trace = test::SmallTrace(150, 11);
  P3QConfig config;
  config.network_size = 15;
  config.stored_profiles = 5;
  P3QSystem system(trace.dataset(), config, {}, 13);
  system.BootstrapRandomViews();
  system.RunLazyCycles(60);

  Rng rng(15);
  int perfect = 0;
  const int num_queries = 20;
  for (int i = 0; i < num_queries; ++i) {
    const UserId querier = static_cast<UserId>(rng.NextUint64(150));
    const QuerySpec spec = GenerateQueryForUser(trace.dataset(), querier, &rng);
    if (spec.tags.empty()) continue;
    const std::vector<ItemId> reference =
        ReferenceTopK(system, spec, config.top_k);
    const std::uint64_t qid = system.IssueQuery(spec);
    system.RunEagerCycles(15);
    if (system.QueryComplete(qid) &&
        RecallAtK(system.query(qid).CurrentTopKItems(), reference) == 1.0) {
      ++perfect;
    }
    system.ForgetQuery(qid);
  }
  EXPECT_GE(perfect, num_queries - 2);
}

TEST(SystemTest, SeededNetworksMatchIdealContents) {
  const SyntheticTrace trace = test::SmallTrace(80, 17);
  P3QConfig config;
  config.network_size = 10;
  config.stored_profiles = 3;
  P3QSystem system(trace.dataset(), config, {}, 19);
  const IdealNetworks ideal = ComputeIdealNetworks(trace.dataset(), 10);
  system.SeedNetworks(ideal);
  for (UserId u = 0; u < 80; ++u) {
    const PersonalNetwork& net = system.node(u).network();
    ASSERT_EQ(net.size(), ideal[u].size());
    for (std::size_t i = 0; i < ideal[u].size(); ++i) {
      EXPECT_EQ(net.entries()[i].user, ideal[u][i].first);
      EXPECT_EQ(net.entries()[i].score, ideal[u][i].second);
      EXPECT_EQ(net.entries()[i].HasStoredProfile(), i < 3u);
    }
  }
}

TEST(SystemTest, ReachedUsersScaleWithinTheoreticalBound) {
  const SyntheticTrace trace = test::SmallTrace(150, 21);
  P3QConfig config;
  config.network_size = 20;
  config.stored_profiles = 4;
  P3QSystem system(trace.dataset(), config, {}, 23);
  system.SeedNetworks(ComputeIdealNetworks(trace.dataset(), 20));
  Rng rng(25);
  const QuerySpec spec = GenerateQueryForUser(trace.dataset(), 8, &rng);
  const std::uint64_t qid = system.IssueQuery(spec);
  int cycles = 0;
  while (!system.QueryComplete(qid) && cycles < 40) {
    system.RunEagerCycles(1);
    ++cycles;
  }
  ASSERT_TRUE(system.QueryComplete(qid));
  // Theorem 2.3: the number of users involved is bounded by 2^R.
  EXPECT_LE(static_cast<double>(system.QueryReached(qid).size()),
            MaxUsersInvolved(static_cast<double>(cycles)));
}

TEST(SystemTest, UpdateBatchChangesReferenceResults) {
  const SyntheticTrace trace = test::SmallTrace(80, 27);
  P3QConfig config;
  config.network_size = 10;
  config.stored_profiles = 10;  // store everything: queries complete locally
  P3QSystem system(trace.dataset(), config, {}, 29);
  system.SeedNetworks(ComputeIdealNetworks(trace.dataset(), 10));

  Rng rng(31);
  UpdateConfig heavy;
  heavy.changed_user_fraction = 0.8;
  heavy.mean_new_actions = 60;
  const UpdateBatch batch = trace.MakeUpdateBatch(heavy, &rng);
  system.ApplyUpdateBatch(batch);
  // Stale replicas: a query computed purely from local replicas can now
  // disagree with the fresh centralized reference.
  int disagreements = 0;
  for (UserId u = 0; u < 30; ++u) {
    const QuerySpec spec = GenerateQueryForUser(trace.dataset(), u, &rng);
    if (spec.tags.empty()) continue;
    const std::vector<ItemId> reference =
        ReferenceTopK(system, spec, config.top_k);
    const std::uint64_t qid = system.IssueQuery(spec);
    if (RecallAtK(system.query(qid).CurrentTopKItems(), reference) < 1.0) {
      ++disagreements;
    }
    system.ForgetQuery(qid);
  }
  EXPECT_GT(disagreements, 0);
}

}  // namespace
}  // namespace p3q
