// Unit tests for profile/: the tagging data model and similarity kernels.
#include <gtest/gtest.h>

#include "common/random.h"
#include "profile/profile.h"
#include "profile/profile_store.h"
#include "test_util.h"

namespace p3q {
namespace {

using test::MakeProfile;

TEST(ProfileTest, SortsAndDeduplicates) {
  const Profile p = MakeProfile(1, {{5, 2}, {1, 1}, {5, 2}, {3, 9}});
  EXPECT_EQ(p.Length(), 3u);
  EXPECT_TRUE(std::is_sorted(p.actions().begin(), p.actions().end()));
}

TEST(ProfileTest, CountsDistinctItems) {
  const Profile p = MakeProfile(1, {{5, 1}, {5, 2}, {5, 3}, {7, 1}});
  EXPECT_EQ(p.NumItems(), 2u);
  EXPECT_EQ(p.Length(), 4u);
}

TEST(ProfileTest, ContainsAndContainsItem) {
  const Profile p = MakeProfile(1, {{5, 1}, {7, 2}});
  EXPECT_TRUE(p.Contains(5, 1));
  EXPECT_FALSE(p.Contains(5, 2));
  EXPECT_TRUE(p.ContainsItem(7));
  EXPECT_FALSE(p.ContainsItem(6));
}

TEST(ProfileTest, SimilarityCountsCommonActions) {
  const Profile a = MakeProfile(1, {{1, 1}, {2, 2}, {3, 3}, {4, 4}});
  const Profile b = MakeProfile(2, {{2, 2}, {3, 3}, {9, 9}});
  EXPECT_EQ(KernelPairSimilarity(a, b).score, 2u);
  EXPECT_EQ(KernelPairSimilarity(b, a).score, 2u);  // symmetric
}

TEST(ProfileTest, SimilaritySameItemDifferentTagIsZero) {
  const Profile a = MakeProfile(1, {{1, 1}});
  const Profile b = MakeProfile(2, {{1, 2}});
  // Actions differ although the item is shared.
  EXPECT_EQ(KernelPairSimilarity(a, b).score, 0u);
  EXPECT_TRUE(a.SharesItemWith(b));
}

TEST(ProfileTest, CommonItems) {
  const Profile a = MakeProfile(1, {{1, 1}, {2, 1}, {2, 2}, {5, 1}});
  const Profile b = MakeProfile(2, {{2, 9}, {5, 1}, {6, 1}});
  const std::vector<ItemId> common = a.CommonItems(b);
  EXPECT_EQ(common, (std::vector<ItemId>{2, 5}));
}

TEST(ProfileTest, ActionsOnItems) {
  const Profile p = MakeProfile(1, {{1, 1}, {2, 1}, {2, 2}, {5, 1}});
  const std::vector<ActionKey> on = p.ActionsOnItems({2, 5});
  EXPECT_EQ(on.size(), 3u);
  EXPECT_EQ(ActionItem(on[0]), 2u);
  EXPECT_EQ(ActionItem(on[2]), 5u);
}

TEST(ProfileTest, ScoreQueryCountsMatchingTags) {
  // Item 10 tagged with {1,2,3}; item 20 with {2}; item 30 with {7}.
  const Profile p =
      MakeProfile(1, {{10, 1}, {10, 2}, {10, 3}, {20, 2}, {30, 7}});
  const std::vector<TagId> query{1, 2};  // sorted
  const auto scores = p.ScoreQuery(query);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_EQ(scores[0], (std::pair<ItemId, std::uint32_t>{10, 2}));
  EXPECT_EQ(scores[1], (std::pair<ItemId, std::uint32_t>{20, 1}));
}

TEST(ProfileTest, ScoreQueryEmptyWhenNoMatch) {
  const Profile p = MakeProfile(1, {{10, 1}});
  EXPECT_TRUE(p.ScoreQuery({5, 6}).empty());
  EXPECT_TRUE(p.ScoreQuery({}).empty());
}

TEST(ProfileTest, DigestCoversItems) {
  const Profile p = MakeProfile(1, {{10, 1}, {20, 2}});
  EXPECT_TRUE(p.digest().MayContain(10));
  EXPECT_TRUE(p.digest().MayContain(20));
}

TEST(ProfileTest, WireBytesUsesPaperCost) {
  const Profile p = MakeProfile(1, {{1, 1}, {2, 2}});
  EXPECT_EQ(p.WireBytes(), 2 * kBytesPerTaggingAction);
}

TEST(PairSimilarityTest, MatchesPieceWiseQueries) {
  const Profile a = MakeProfile(1, {{1, 1}, {2, 1}, {2, 2}, {3, 1}, {9, 9}});
  const Profile b = MakeProfile(2, {{2, 1}, {2, 3}, {3, 1}, {4, 4}});
  const PairSimilarity sim = ComputePairSimilarity(a, b);
  EXPECT_EQ(sim.score, CountCommonActions(a.actions(), b.actions()));
  EXPECT_EQ(sim.common_items, a.CommonItems(b).size());
  EXPECT_EQ(sim.a_actions_on_common, 3u);  // a's actions on items {2,3}
  EXPECT_EQ(sim.b_actions_on_common, 3u);  // b's actions on items {2,3}
  EXPECT_GE(sim.a_actions_on_common, sim.score);
}

TEST(PairSimilarityTest, RandomizedAgreesWithNaive) {
  Rng rng(97);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::pair<ItemId, TagId>> pa, pb;
    for (int i = 0; i < 60; ++i) {
      pa.emplace_back(static_cast<ItemId>(rng.NextUint64(20)),
                      static_cast<TagId>(rng.NextUint64(5)));
      pb.emplace_back(static_cast<ItemId>(rng.NextUint64(20)),
                      static_cast<TagId>(rng.NextUint64(5)));
    }
    const Profile a = MakeProfile(1, pa);
    const Profile b = MakeProfile(2, pb);
    const PairSimilarity sim = ComputePairSimilarity(a, b);
    EXPECT_EQ(sim.score, CountCommonActions(a.actions(), b.actions()));
    EXPECT_EQ(sim.common_items, a.CommonItems(b).size());
    std::vector<ItemId> common = a.CommonItems(b);
    EXPECT_EQ(sim.a_actions_on_common, a.ActionsOnItems(common).size());
    EXPECT_EQ(sim.b_actions_on_common, b.ActionsOnItems(common).size());
  }
}

TEST(ProfileStoreTest, VersioningOnUpdate) {
  ProfileStore store;
  store.AddUser(0, {MakeAction(1, 1)}, 1024);
  store.AddUser(1, {MakeAction(2, 2)}, 1024);
  EXPECT_EQ(store.NumUsers(), 2u);
  EXPECT_EQ(store.CurrentVersion(0), 0u);

  const ProfilePtr old = store.Get(0);
  store.ApplyUpdate(0, {MakeAction(3, 3)});
  EXPECT_EQ(store.CurrentVersion(0), 1u);
  EXPECT_EQ(store.Get(0)->Length(), 2u);
  // The old snapshot is untouched (replicas stay stable).
  EXPECT_EQ(old->Length(), 1u);
  EXPECT_FALSE(store.IsFresh(*old));
  EXPECT_TRUE(store.IsFresh(*store.Get(0)));
}

TEST(ProfileStoreTest, UpdateMergesAndDeduplicates) {
  ProfileStore store;
  store.AddUser(0, {MakeAction(1, 1), MakeAction(2, 2)}, 1024);
  store.ApplyUpdate(0, {MakeAction(2, 2), MakeAction(4, 4)});
  EXPECT_EQ(store.Get(0)->Length(), 3u);
}

TEST(ProfileStoreTest, TotalActions) {
  ProfileStore store;
  store.AddUser(0, {MakeAction(1, 1)}, 1024);
  store.AddUser(1, {MakeAction(1, 1), MakeAction(2, 1)}, 1024);
  EXPECT_EQ(store.TotalActions(), 3u);
}

}  // namespace
}  // namespace p3q
