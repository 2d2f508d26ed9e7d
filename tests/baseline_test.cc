// Tests for baseline/: ideal k-NN networks and the centralized reference.
#include <algorithm>
#include <span>
#include <unordered_map>

#include <gtest/gtest.h>

#include "baseline/centralized_topk.h"
#include "baseline/ideal_network.h"
#include "common/random.h"
#include "dataset/generator.h"

#include "test_util.h"

namespace p3q {
namespace {

/// The map-based kernel ComputeIdealNetworks replaced, kept as the oracle:
/// an `unordered_map` inverted index of per-action vectors, every co-tagger
/// scored and sorted, and the list truncated to s.
IdealNetworks OracleIdealNetworks(
    const std::vector<std::span<const ActionKey>>& actions, int network_size,
    SimilarityMetric metric) {
  const std::size_t num_users = actions.size();
  std::unordered_map<ActionKey, std::vector<std::uint32_t>> postings;
  for (std::uint32_t u = 0; u < num_users; ++u) {
    for (ActionKey a : actions[u]) postings[a].push_back(u);
  }
  IdealNetworks ideal(num_users);
  std::vector<std::uint32_t> counts(num_users, 0);
  std::vector<std::uint32_t> touched;
  for (std::uint32_t u = 0; u < num_users; ++u) {
    touched.clear();
    for (ActionKey a : actions[u]) {
      for (std::uint32_t v : postings[a]) {
        if (v == u) continue;
        if (counts[v]++ == 0) touched.push_back(v);
      }
    }
    auto& list = ideal[u];
    for (std::uint32_t v : touched) {
      const std::uint64_t score = SimilarityScore(
          metric, counts[v], actions[u].size(), actions[v].size());
      if (score > 0) list.emplace_back(v, score);
      counts[v] = 0;
    }
    std::sort(list.begin(), list.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    if (list.size() > static_cast<std::size_t>(network_size)) {
      list.resize(static_cast<std::size_t>(network_size));
    }
  }
  return ideal;
}

std::vector<std::span<const ActionKey>> ActionsOf(const Dataset& dataset) {
  std::vector<std::span<const ActionKey>> actions;
  for (UserId u = 0; u < static_cast<UserId>(dataset.NumUsers()); ++u) {
    actions.push_back(dataset.ActionsOf(u));
  }
  return actions;
}

std::vector<std::span<const ActionKey>> ActionsOf(const ProfileStore& store) {
  std::vector<std::span<const ActionKey>> actions;
  for (UserId u = 0; u < static_cast<UserId>(store.NumUsers()); ++u) {
    actions.push_back(store.Get(u)->actions());
  }
  return actions;
}

/// Whole lists equal the oracle's, and every list holds no spare capacity.
void ExpectMatchesOracle(const IdealNetworks& ideal,
                         const IdealNetworks& oracle) {
  ASSERT_EQ(ideal.size(), oracle.size());
  for (std::size_t u = 0; u < ideal.size(); ++u) {
    EXPECT_EQ(ideal[u], oracle[u]) << "user " << u;
    EXPECT_EQ(ideal[u].capacity(), ideal[u].size()) << "user " << u;
  }
}

std::size_t LongestList(const IdealNetworks& ideal) {
  std::size_t longest = 0;
  for (const auto& list : ideal) longest = std::max(longest, list.size());
  return longest;
}

TEST(IdealNetworkTest, MatchesMapKernelOracleAcrossTracesMetricsAndSizes) {
  const std::vector<std::pair<int, std::uint64_t>> traces = {
      {40, 3}, {150, 5}, {400, 8}};
  for (const auto& [users, seed] : traces) {
    const SyntheticTrace trace = test::SmallTrace(users, seed);
    const Dataset& d = trace.dataset();
    for (SimilarityMetric metric :
         {SimilarityMetric::kCommonActions, SimilarityMetric::kJaccard}) {
      // s = users exceeds every list's length (a user has at most
      // users - 1 neighbours), so nothing is truncated.
      for (int s : {1, users / 10, users}) {
        SCOPED_TRACE("users " + std::to_string(users) + " seed " +
                     std::to_string(seed) + " metric " +
                     SimilarityMetricName(metric) + " s " + std::to_string(s));
        const IdealNetworks oracle =
            OracleIdealNetworks(ActionsOf(d), s, metric);
        if (s == users) {
          ASSERT_LT(LongestList(oracle), static_cast<std::size_t>(s));
        }
        ExpectMatchesOracle(ComputeIdealNetworks(d, s, metric), oracle);
      }
    }
  }
}

TEST(IdealNetworkTest, StoreOverloadMatchesOracleAfterUpdates) {
  const SyntheticTrace trace = test::SmallTrace(200, 13);
  ProfileStore store = trace.dataset().BuildProfileStore(1024);
  Rng rng(17);
  // Every fifth user tags a few actions copied from another user plus a
  // few new ones, so the store's current snapshots differ from the dataset.
  for (UserId u = 0; u < 200; u += 5) {
    const auto donor = store.Get(static_cast<UserId>(rng.NextUint64(200)));
    std::vector<ActionKey> added;
    for (std::size_t i = 0; i < donor->actions().size() && i < 6; ++i) {
      added.push_back(donor->actions()[i]);
    }
    added.push_back(MakeAction(1'000'000 + u % 7, 3));
    store.ApplyUpdate(u, added);
  }
  for (SimilarityMetric metric :
       {SimilarityMetric::kCommonActions, SimilarityMetric::kJaccard}) {
    for (int s : {1, 20, 200}) {
      SCOPED_TRACE(std::string("metric ") + SimilarityMetricName(metric) +
                   " s " + std::to_string(s));
      ExpectMatchesOracle(ComputeIdealNetworks(store, s, metric),
                          OracleIdealNetworks(ActionsOf(store), s, metric));
    }
  }
}

TEST(IdealNetworkTest, SampledListsAreExactForTheSampleAndEmptyElsewhere) {
  const SyntheticTrace trace = test::SmallTrace(180, 21);
  const ProfileStore store = trace.dataset().BuildProfileStore(1024);
  constexpr std::size_t kSample = 24;
  constexpr std::uint64_t kSeed = 9;
  for (SimilarityMetric metric :
       {SimilarityMetric::kCommonActions, SimilarityMetric::kJaccard}) {
    SCOPED_TRACE(SimilarityMetricName(metric));
    const IdealNetworks exact = ComputeIdealNetworks(store, 12, metric);
    const IdealNetworks sampled =
        ComputeIdealNetworksSampled(store, 12, kSample, kSeed, metric);
    ASSERT_EQ(sampled.size(), exact.size());
    // The sample as the header documents it: drawn from the seed alone.
    std::vector<UserId> all(store.NumUsers());
    for (UserId u = 0; u < all.size(); ++u) all[u] = u;
    Rng rng(kSeed * 0x9e3779b97f4a7c15ULL + 0x1d8e4e27c47d124fULL);
    const std::vector<UserId> sample =
        rng.SampleWithoutReplacement(all, kSample);
    std::vector<bool> in_sample(store.NumUsers(), false);
    for (UserId u : sample) in_sample[u] = true;
    std::size_t non_empty = 0;
    for (UserId u = 0; u < sampled.size(); ++u) {
      if (in_sample[u]) {
        EXPECT_EQ(sampled[u], exact[u]) << "user " << u;
        EXPECT_EQ(sampled[u].capacity(), sampled[u].size()) << "user " << u;
        non_empty += sampled[u].empty() ? 0 : 1;
      } else {
        EXPECT_TRUE(sampled[u].empty()) << "user " << u;
      }
    }
    EXPECT_GT(non_empty, 0u);
    // A sample as large as the population is the exact computation.
    for (std::size_t size : {store.NumUsers(), store.NumUsers() + 5}) {
      ExpectMatchesOracle(
          ComputeIdealNetworksSampled(store, 12, size, kSeed, metric), exact);
    }
  }
}

TEST(IdealNetworkTest, MatchesBruteForceOnSmallTrace) {
  const SyntheticTrace trace = test::SmallTrace(80, 7);
  const Dataset& d = trace.dataset();
  const int s = 10;
  const IdealNetworks ideal = ComputeIdealNetworks(d, s);
  ASSERT_EQ(ideal.size(), 80u);

  for (UserId u = 0; u < 80; ++u) {
    // Brute force: all-pairs intersection.
    std::vector<std::pair<UserId, std::uint64_t>> brute;
    for (UserId v = 0; v < 80; ++v) {
      if (v == u) continue;
      const std::uint64_t score =
          CountCommonActions(d.ActionsOf(u), d.ActionsOf(v));
      if (score > 0) brute.emplace_back(v, score);
    }
    std::sort(brute.begin(), brute.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    if (brute.size() > static_cast<std::size_t>(s)) brute.resize(s);
    EXPECT_EQ(ideal[u], brute) << "user " << u;
  }
}

TEST(IdealNetworkTest, ScoresPositiveAndSorted) {
  const SyntheticTrace trace = test::SmallTrace(120, 9);
  const IdealNetworks ideal = ComputeIdealNetworks(trace.dataset(), 15);
  for (const auto& list : ideal) {
    EXPECT_LE(list.size(), 15u);
    for (std::size_t i = 0; i < list.size(); ++i) {
      EXPECT_GT(list[i].second, 0u);
      if (i > 0) {
        EXPECT_GE(list[i - 1].second, list[i].second);
      }
    }
  }
}

TEST(IdealNetworkTest, StoreOverloadSeesUpdatedProfiles) {
  const SyntheticTrace trace = test::SmallTrace(60, 11);
  ProfileStore store = trace.dataset().BuildProfileStore(1024);
  const IdealNetworks before = ComputeIdealNetworks(store, 8);
  // Clone user 0's profile onto user 1: they become maximally similar.
  store.ApplyUpdate(1, std::vector<ActionKey>(store.Get(0)->actions().begin(),
                                              store.Get(0)->actions().end()));
  const IdealNetworks after = ComputeIdealNetworks(store, 8);
  ASSERT_FALSE(after[0].empty());
  EXPECT_EQ(after[0][0].first, 1u);
  EXPECT_EQ(after[0][0].second, store.Get(0)->Length());
  EXPECT_NE(before[0], after[0]);
}

TEST(CentralizedTopKTest, HandComputedExample) {
  auto make = [](UserId owner, std::vector<std::pair<ItemId, TagId>> pairs) {
    std::vector<ActionKey> actions;
    for (auto [i, t] : pairs) actions.push_back(MakeAction(i, t));
    return std::make_shared<Profile>(owner, std::move(actions), 0, 1024);
  };
  // Query tags {1, 2}. Profile A: item 10 gets both tags (score 2), item 20
  // gets tag 1. Profile B: item 10 gets tag 2, item 30 gets tag 1.
  const std::vector<ProfilePtr> profiles = {
      make(1, {{10, 1}, {10, 2}, {20, 1}, {40, 9}}),
      make(2, {{10, 2}, {30, 1}})};
  const auto ranked = CentralizedTopK(profiles, {1, 2}, 10);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0], (std::pair<ItemId, std::uint64_t>{10, 3}));
  EXPECT_EQ(ranked[1], (std::pair<ItemId, std::uint64_t>{20, 1}));  // tie: id
  EXPECT_EQ(ranked[2], (std::pair<ItemId, std::uint64_t>{30, 1}));
}

TEST(CentralizedTopKTest, TruncatesToK) {
  auto make = [](UserId owner, std::vector<std::pair<ItemId, TagId>> pairs) {
    std::vector<ActionKey> actions;
    for (auto [i, t] : pairs) actions.push_back(MakeAction(i, t));
    return std::make_shared<Profile>(owner, std::move(actions), 0, 1024);
  };
  const std::vector<ProfilePtr> profiles = {
      make(1, {{1, 1}, {2, 1}, {3, 1}, {4, 1}})};
  EXPECT_EQ(CentralizedTopK(profiles, {1}, 2).size(), 2u);
}

TEST(CentralizedTopKTest, EmptyInputs) {
  EXPECT_TRUE(CentralizedTopK({}, {1, 2}, 5).empty());
}

}  // namespace
}  // namespace p3q
