// Unit tests for gossip/: random peer sampling views and digest semantics.
#include <set>

#include <gtest/gtest.h>

#include "gossip/peer_sampling.h"
#include "gossip/view.h"
#include "profile/profile.h"
#include "test_util.h"

namespace p3q {
namespace {

using test::MakeDigest;
using test::MakeSnapshot;

TEST(DigestInfoTest, ExposesVersionAndWireBytes) {
  const DigestInfo d = MakeDigest(3, {1, 2}, 5);
  EXPECT_EQ(d.version(), 5u);
  EXPECT_EQ(d.WireBytes(), d.snapshot->DigestBytes() + kBytesPerUserId);
  EXPECT_EQ(d.snapshot->DigestBytes(), 2048u / 8);  // MakeDigest's 2048 bits
}

TEST(DigestIndicatesCommonItemTest, TrueOnGenuineOverlap) {
  Rng rng(1);
  const ProfilePtr mine = MakeSnapshot(1, {10, 20, 30});
  const DigestInfo theirs = MakeDigest(2, {30, 40});
  // Deterministically true: a real common item never depends on the rng.
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(DigestIndicatesCommonItem(*mine, theirs, &rng));
  }
}

TEST(DigestIndicatesCommonItemTest, MostlyFalseWithoutOverlap) {
  Rng rng(2);
  const ProfilePtr mine = MakeSnapshot(1, {10, 20, 30});
  const DigestInfo theirs = MakeDigest(2, {40, 50});
  int positives = 0;
  for (int i = 0; i < 1000; ++i) {
    positives += DigestIndicatesCommonItem(*mine, theirs, &rng) ? 1 : 0;
  }
  // A 2048-bit filter with 2 items has a tiny FPP; with 3 probe items the
  // pass rate must stay far below 5%.
  EXPECT_LT(positives, 50);
}

TEST(RandomViewTest, InitTruncatesToCapacity) {
  RandomView view(0, 3);
  view.Init({MakeDigest(1, {1}), MakeDigest(2, {2}), MakeDigest(3, {3}),
             MakeDigest(4, {4})});
  EXPECT_EQ(view.entries().size(), 3u);
}

TEST(RandomViewTest, SelectRandomPeerReturnsMember) {
  RandomView view(0, 4);
  view.Init({MakeDigest(1, {1}), MakeDigest(2, {2})});
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const UserId peer = view.SelectRandomPeer(&rng);
    EXPECT_TRUE(peer == 1 || peer == 2);
  }
}

TEST(RandomViewTest, EmptyViewSelectsInvalid) {
  RandomView view(0, 4);
  Rng rng(4);
  EXPECT_EQ(view.SelectRandomPeer(&rng), kInvalidUser);
}

TEST(RandomViewTest, PayloadIncludesSelfDescriptor) {
  RandomView view(0, 2);
  view.Init({MakeDigest(1, {1})});
  const auto payload = view.MakeExchangePayload(MakeDigest(0, {9}));
  EXPECT_EQ(payload.size(), 2u);
  EXPECT_EQ(payload.back().user, 0u);
}

TEST(RandomViewTest, MergeExcludesSelfAndDeduplicates) {
  RandomView view(0, 10);
  view.Init({MakeDigest(1, {1})});
  view.Merge({MakeDigest(0, {0}), MakeDigest(1, {1}), MakeDigest(2, {2})},
             nullptr);
  std::set<UserId> users;
  for (const auto& e : view.entries()) users.insert(e.user);
  EXPECT_EQ(users, (std::set<UserId>{1, 2}));
}

TEST(RandomViewTest, MergeKeepsNewestVersion) {
  RandomView view(0, 10);
  view.Init({MakeDigest(1, {1}, 0)});
  view.Merge({MakeDigest(1, {1, 2}, 3)}, nullptr);
  ASSERT_EQ(view.entries().size(), 1u);
  EXPECT_EQ(view.entries()[0].version(), 3u);
  // An older digest never downgrades the view.
  view.Merge({MakeDigest(1, {1}, 1)}, nullptr);
  EXPECT_EQ(view.entries()[0].version(), 3u);
}

TEST(RandomViewTest, MergeRespectsCapacity) {
  RandomView view(0, 3);
  view.Init({MakeDigest(1, {1}), MakeDigest(2, {2})});
  Rng rng(5);
  view.Merge({MakeDigest(3, {3}), MakeDigest(4, {4}), MakeDigest(5, {5})},
             &rng);
  EXPECT_EQ(view.entries().size(), 3u);
}

TEST(RandomViewTest, MergeSamplesUniformlyFromUnion) {
  // Statistical: each of 6 candidates should survive roughly equally often.
  std::vector<int> survivals(7, 0);
  for (int trial = 0; trial < 2000; ++trial) {
    RandomView view(0, 3);
    view.Init({MakeDigest(1, {1}), MakeDigest(2, {2}), MakeDigest(3, {3})});
    Rng rng(1000 + trial);
    view.Merge({MakeDigest(4, {4}), MakeDigest(5, {5}), MakeDigest(6, {6})},
               &rng);
    for (const auto& e : view.entries()) ++survivals[e.user];
  }
  for (UserId u = 1; u <= 6; ++u) {
    EXPECT_NEAR(survivals[u] / 2000.0, 0.5, 0.07) << "user " << u;
  }
}

TEST(RandomViewTest, RemoveDropsUser) {
  RandomView view(0, 4);
  view.Init({MakeDigest(1, {1}), MakeDigest(2, {2})});
  view.Remove(1);
  ASSERT_EQ(view.entries().size(), 1u);
  EXPECT_EQ(view.entries()[0].user, 2u);
  view.Remove(9);  // absent: no-op
  EXPECT_EQ(view.entries().size(), 1u);
}

}  // namespace
}  // namespace p3q
