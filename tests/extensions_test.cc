// Tests for the paper-suggested extensions: alternative similarity metrics,
// explicit social networks, and the bottom-layer ablation switch.
#include <gtest/gtest.h>

#include "baseline/ideal_network.h"
#include "core/p3q_system.h"
#include "dataset/generator.h"
#include "eval/metrics_eval.h"
#include "profile/similarity.h"
#include "test_util.h"

namespace p3q {
namespace {

using test::MakeProfile;

TEST(SimilarityMetricTest, CommonActionsIsIdentity) {
  EXPECT_EQ(SimilarityScore(SimilarityMetric::kCommonActions, 7, 100, 50), 7u);
  EXPECT_EQ(SimilarityScore(SimilarityMetric::kCommonActions, 0, 100, 50), 0u);
}

TEST(SimilarityMetricTest, JaccardBounds) {
  // Identical sets: jaccard 1 (scaled).
  EXPECT_EQ(SimilarityScore(SimilarityMetric::kJaccard, 10, 10, 10),
            kSimilarityScale);
  // Half overlap: 10 common of union 30.
  EXPECT_EQ(SimilarityScore(SimilarityMetric::kJaccard, 10, 20, 20),
            kSimilarityScale / 3);
}

TEST(SimilarityMetricTest, CosineAndOverlap) {
  // 4 common, lengths 4 and 16: cosine = 4/sqrt(64) = 0.5.
  EXPECT_EQ(SimilarityScore(SimilarityMetric::kCosine, 4, 4, 16),
            kSimilarityScale / 2);
  // overlap = 4/min(4,16) = 1.
  EXPECT_EQ(SimilarityScore(SimilarityMetric::kOverlap, 4, 4, 16),
            kSimilarityScale);
}

TEST(SimilarityMetricTest, NormalizedMetricsRankDifferently) {
  // A small highly-overlapping profile vs a huge mildly-overlapping one:
  // raw count prefers the huge one, jaccard the small one.
  const Profile me = MakeProfile(0, {{1, 1}, {2, 1}, {3, 1}, {4, 1}});
  std::vector<std::pair<ItemId, TagId>> small_pairs{{1, 1}, {2, 1}, {3, 1}};
  std::vector<std::pair<ItemId, TagId>> big_pairs;
  for (ItemId i = 1; i <= 4; ++i) big_pairs.emplace_back(i, 1);   // all 4
  for (ItemId i = 100; i < 200; ++i) big_pairs.emplace_back(i, 2);  // noise
  const Profile small = MakeProfile(1, small_pairs);
  const Profile big = MakeProfile(2, big_pairs);
  auto score = [&me](SimilarityMetric metric, const Profile& other) {
    return SimilarityScore(metric, KernelPairSimilarity(me, other).score,
                           me.Length(), other.Length());
  };

  EXPECT_GT(score(SimilarityMetric::kCommonActions, big),
            score(SimilarityMetric::kCommonActions, small));
  EXPECT_GT(score(SimilarityMetric::kJaccard, small),
            score(SimilarityMetric::kJaccard, big));
}

TEST(SimilarityMetricTest, AllMetricsHaveNames) {
  for (auto m : {SimilarityMetric::kCommonActions, SimilarityMetric::kJaccard,
                 SimilarityMetric::kCosine, SimilarityMetric::kOverlap}) {
    EXPECT_STRNE(SimilarityMetricName(m), "unknown");
  }
}

TEST(SimilarityMetricTest, ProtocolRunsUnderJaccard) {
  const SyntheticTrace trace = test::SmallTrace(120, 3);
  P3QConfig config;
  config.network_size = 15;
  config.stored_profiles = 5;
  config.similarity = SimilarityMetric::kJaccard;
  P3QSystem system(trace.dataset(), config, {}, 5);
  system.BootstrapRandomViews();
  const IdealNetworks ideal = ComputeIdealNetworks(
      trace.dataset(), config.network_size, SimilarityMetric::kJaccard);
  system.RunLazyCycles(40);
  // Networks converge toward the jaccard-ideal ones.
  EXPECT_GT(AverageSuccessRatio(system, ideal), 0.5);
  // Scores in networks are jaccard-scaled, not raw counts.
  bool saw_scaled = false;
  for (const NetworkEntry& e : system.node(0).network().entries()) {
    if (e.score > 1000) saw_scaled = true;
  }
  EXPECT_TRUE(saw_scaled);
}

TEST(IdealNetworkTest, MetricChangesRanking) {
  const SyntheticTrace trace = test::SmallTrace(150, 7);
  const IdealNetworks raw =
      ComputeIdealNetworks(trace.dataset(), 10, SimilarityMetric::kCommonActions);
  const IdealNetworks jac =
      ComputeIdealNetworks(trace.dataset(), 10, SimilarityMetric::kJaccard);
  int different = 0;
  for (UserId u = 0; u < 150; ++u) {
    std::vector<UserId> a, b;
    for (const auto& [v, s] : raw[u]) a.push_back(v);
    for (const auto& [v, s] : jac[u]) b.push_back(v);
    if (a != b) ++different;
  }
  EXPECT_GT(different, 10);  // normalization reshuffles many networks
}

TEST(ExplicitNetworkTest, SeedsDeclaredFriends) {
  const SyntheticTrace trace = test::SmallTrace(60, 11);
  P3QConfig config;
  config.network_size = 10;
  config.stored_profiles = 3;
  P3QSystem system(trace.dataset(), config, {}, 13);
  std::vector<std::vector<UserId>> friends(60);
  friends[0] = {1, 2, 3, 0 /*self: ignored*/, 99 /*out of range: ignored*/};
  friends[5] = {6};
  system.SeedExplicitNetworks(friends);
  EXPECT_EQ(system.node(0).network().size(), 3u);
  EXPECT_TRUE(system.node(0).network().Contains(1));
  EXPECT_TRUE(system.node(0).network().Contains(2));
  EXPECT_TRUE(system.node(0).network().Contains(3));
  EXPECT_FALSE(system.node(0).network().Contains(0));
  EXPECT_EQ(system.node(5).network().size(), 1u);
  EXPECT_TRUE(system.node(1).network().Empty());  // friendship is directed
}

TEST(ExplicitNetworkTest, EagerModeAloneSuffices) {
  // The paper's Section 4: with an explicit network as input, only the
  // eager mode is needed to answer queries.
  const SyntheticTrace trace = test::SmallTrace(100, 17);
  P3QConfig config;
  config.network_size = 12;
  config.stored_profiles = 3;
  P3QSystem system(trace.dataset(), config, {}, 19);
  Rng rng(23);
  std::vector<std::vector<UserId>> friends(100);
  for (UserId u = 0; u < 100; ++u) {
    for (int i = 0; i < 8; ++i) {
      const UserId v = static_cast<UserId>(rng.NextUint64(100));
      if (v != u) friends[u].push_back(v);
    }
  }
  system.SeedExplicitNetworks(friends);
  const QuerySpec spec = GenerateQueryForUser(trace.dataset(), 4, &rng);
  ASSERT_FALSE(spec.tags.empty());
  const std::uint64_t qid = system.IssueQuery(spec);
  system.RunEagerCycles(20);  // no lazy cycles at all
  EXPECT_TRUE(system.QueryComplete(qid));
  const ActiveQuery& q = system.query(qid);
  EXPECT_EQ(q.NumUsedProfiles(), q.expected_profiles());
}

TEST(BottomLayerAblationTest, DisablingSlowsDiscovery) {
  const SyntheticTrace trace = test::SmallTrace(150, 29);
  const IdealNetworks ideal = ComputeIdealNetworks(trace.dataset(), 15);
  auto run = [&](bool bottom) {
    P3QConfig config;
    config.network_size = 15;
    config.stored_profiles = 5;
    config.enable_bottom_layer = bottom;
    P3QSystem system(trace.dataset(), config, {}, 31);
    system.BootstrapRandomViews();
    system.RunLazyCycles(40);
    return AverageSuccessRatio(system, ideal);
  };
  const double with_bottom = run(true);
  const double without_bottom = run(false);
  // Without random peer sampling the only discovery channel is the initial
  // random view snapshot; convergence must be clearly worse.
  EXPECT_GT(with_bottom, without_bottom + 0.2);
}

TEST(BottomLayerAblationTest, NoBottomLayerMeansNoRpsTraffic) {
  const SyntheticTrace trace = test::SmallTrace(80, 37);
  P3QConfig config;
  config.network_size = 10;
  config.stored_profiles = 3;
  config.enable_bottom_layer = false;
  P3QSystem system(trace.dataset(), config, {}, 41);
  system.BootstrapRandomViews();
  system.RunLazyCycles(10);
  EXPECT_EQ(system.metrics().Of(MessageType::kRandomViewGossip).messages, 0u);
  EXPECT_EQ(system.metrics().Of(MessageType::kDirectProfileFetch).messages, 0u);
}

}  // namespace
}  // namespace p3q
