// Unit tests for gossip/: random peer sampling views and digest semantics.
#include <array>
#include <cstddef>
#include <memory_resource>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

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

TEST(RandomViewTest, PayloadIncludesSelfDescriptor) {
  RandomView view(0, 2);
  view.Init({MakeDigest(1, {1})});
  std::pmr::vector<DigestInfo> payload;
  view.MakeExchangePayload(MakeDigest(0, {9}), &payload);
  EXPECT_EQ(payload.size(), 2u);
  EXPECT_EQ(payload.back().user, 0u);
}

TEST(RandomViewTest, MergeExcludesSelfAndDeduplicates) {
  RandomView view(0, 10);
  view.Init({MakeDigest(1, {1})});
  view.Merge(std::vector<DigestInfo>{MakeDigest(0, {0}), MakeDigest(1, {1}),
                                     MakeDigest(2, {2})},
             nullptr);
  std::set<UserId> users;
  for (const auto& e : view.entries()) users.insert(e.user);
  EXPECT_EQ(users, (std::set<UserId>{1, 2}));
}

TEST(RandomViewTest, MergeKeepsNewestVersion) {
  RandomView view(0, 10);
  view.Init({MakeDigest(1, {1}, 0)});
  view.Merge(std::vector<DigestInfo>{MakeDigest(1, {1, 2}, 3)}, nullptr);
  ASSERT_EQ(view.entries().size(), 1u);
  EXPECT_EQ(view.entries()[0].version(), 3u);
  // An older digest never downgrades the view.
  view.Merge(std::vector<DigestInfo>{MakeDigest(1, {1}, 1)}, nullptr);
  EXPECT_EQ(view.entries()[0].version(), 3u);
}

TEST(RandomViewTest, MergeRespectsCapacity) {
  RandomView view(0, 3);
  view.Init({MakeDigest(1, {1}), MakeDigest(2, {2})});
  Rng rng(5);
  view.Merge(std::vector<DigestInfo>{MakeDigest(3, {3}), MakeDigest(4, {4}),
                                     MakeDigest(5, {5})},
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
    view.Merge(std::vector<DigestInfo>{MakeDigest(4, {4}), MakeDigest(5, {5}),
                                       MakeDigest(6, {6})},
               &rng);
    for (const auto& e : view.entries()) ++survivals[e.user];
  }
  for (UserId u = 1; u <= 6; ++u) {
    EXPECT_NEAR(survivals[u] / 2000.0, 0.5, 0.07) << "user " << u;
  }
}

/// RandomView::Merge as it was before its table borrowed: an unordered_map
/// of DigestInfo copies, keyed and reserved as the rewrite's table of
/// pointers is, then the reservoir over the copies.
std::vector<DigestInfo> OracleMerge(UserId self, std::size_t capacity,
                                    const std::vector<DigestInfo>& entries,
                                    const std::vector<DigestInfo>& received,
                                    Rng* rng) {
  std::unordered_map<UserId, DigestInfo> merged;
  merged.reserve(entries.size() + received.size());
  auto absorb = [&](const DigestInfo& d) {
    if (d.user == self) return;
    auto [it, inserted] = merged.emplace(d.user, d);
    if (!inserted && d.version() > it->second.version()) it->second = d;
  };
  for (const auto& d : entries) absorb(d);
  for (const auto& d : received) absorb(d);

  std::vector<DigestInfo> pool;
  pool.reserve(merged.size());
  for (auto& [user, d] : merged) pool.push_back(std::move(d));
  if (pool.size() <= capacity) return pool;
  return rng->SampleWithoutReplacement(pool, capacity);
}

/// The (user, snapshot) sequence of a view, which is what the goldens see.
std::vector<std::pair<UserId, const Profile*>> Sequence(
    const std::vector<DigestInfo>& entries) {
  std::vector<std::pair<UserId, const Profile*>> out;
  for (const DigestInfo& d : entries) {
    out.emplace_back(d.user, d.snapshot.get());
  }
  return out;
}

/// How often the differential below hit each case; each must occur.
struct MergeCases {
  int older = 0;  ///< a received digest older than the view's
  int equal = 0;
  int newer = 0;
  int self_in_payload = 0;
  int below_capacity = 0;  ///< union smaller than the view's capacity
  int at_capacity = 0;
  int above_capacity = 0;
  int capacity_one = 0;
  int empty_view = 0;
  int empty_payload = 0;
  int large_view_sampled = 0;  ///< r = 200: the table outgrows the stack
};

TEST(RandomViewTest, MergeMatchesCopyingOracle) {
  constexpr UserId kUsers = 420;
  constexpr std::uint32_t kVersions = 3;
  // Two distinct snapshots per (user, version), so an equal-version tie
  // shows which copy won.
  std::vector<std::array<DigestInfo, 2>> bank;
  for (UserId u = 0; u < kUsers; ++u) {
    for (std::uint32_t v = 0; v < kVersions; ++v) {
      bank.push_back({MakeDigest(u, {u}, v), MakeDigest(u, {u}, v)});
    }
  }
  Rng gen(71);
  auto draw = [&](UserId universe) -> const DigestInfo& {
    const auto u = static_cast<UserId>(gen.NextUint64(universe));
    const auto v = static_cast<std::uint32_t>(gen.NextUint64(kVersions));
    return bank[u * kVersions + v][gen.NextUint64(2)];
  };
  constexpr std::size_t kCapacities[] = {1, 2, 3, 4, 5, 8, 10, 10, 10, 16};

  MergeCases cases;
  for (int c = 0; c < 1200; ++c) {
    const std::size_t capacity =
        c % 40 == 0 ? 200 : kCapacities[gen.NextUint64(std::size(kCapacities))];
    // A small universe makes overlaps and self-digests common.
    const auto universe = static_cast<UserId>(
        std::min<std::size_t>(kUsers, 3 * capacity + 4));
    const auto self = static_cast<UserId>(gen.NextUint64(universe));
    std::vector<DigestInfo> initial;
    std::set<UserId> in_view;
    const std::size_t view_size =
        gen.NextUint64(8) == 0 ? 0 : gen.NextUint64(capacity + 1);
    for (std::size_t i = 0; i < 4 * view_size && in_view.size() < view_size;
         ++i) {
      const DigestInfo& d = draw(universe);
      if (d.user != self && in_view.insert(d.user).second) {
        initial.push_back(d);
      }
    }
    RandomView view(self, capacity);
    view.Init(initial);
    std::vector<DigestInfo> oracle = view.entries();
    Rng rng(1000 + c);
    Rng oracle_rng(1000 + c);
    cases.capacity_one += capacity == 1 ? 1 : 0;

    // A few merges in a row: each starts from the view the last one left.
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE("case " + std::to_string(c) + " round " +
                   std::to_string(round));
      std::vector<DigestInfo> payload;
      const std::size_t payload_size =
          gen.NextUint64(8) == 0 ? 0 : gen.NextUint64(capacity + 2);
      for (std::size_t i = 0; i < payload_size; ++i) {
        payload.push_back(draw(universe));
      }
      std::set<UserId> users;
      for (const DigestInfo& d : view.entries()) users.insert(d.user);
      for (const DigestInfo& d : payload) {
        if (d.user == self) {
          ++cases.self_in_payload;
          continue;
        }
        users.insert(d.user);
        for (const DigestInfo& mine : view.entries()) {
          if (mine.user != d.user) continue;
          if (d.version() < mine.version()) ++cases.older;
          if (d.version() == mine.version()) ++cases.equal;
          if (d.version() > mine.version()) ++cases.newer;
        }
      }
      cases.empty_view += view.Empty() ? 1 : 0;
      cases.empty_payload += payload.empty() ? 1 : 0;
      cases.below_capacity += users.size() < capacity ? 1 : 0;
      cases.at_capacity += users.size() == capacity ? 1 : 0;
      cases.above_capacity += users.size() > capacity ? 1 : 0;
      cases.large_view_sampled +=
          capacity == 200 && users.size() > capacity ? 1 : 0;

      view.Merge(payload, &rng);
      oracle = OracleMerge(self, capacity, oracle, payload, &oracle_rng);
      ASSERT_EQ(Sequence(view.entries()), Sequence(oracle));
      ASSERT_EQ(rng.State(), oracle_rng.State());
      ASSERT_EQ(view.entries().capacity(), view.entries().size());
    }
  }
  EXPECT_GT(cases.older, 0);
  EXPECT_GT(cases.equal, 0);
  EXPECT_GT(cases.newer, 0);
  EXPECT_GT(cases.self_in_payload, 0);
  EXPECT_GT(cases.below_capacity, 0);
  EXPECT_GT(cases.at_capacity, 0);
  EXPECT_GT(cases.above_capacity, 0);
  EXPECT_GT(cases.capacity_one, 0);
  EXPECT_GT(cases.empty_view, 0);
  EXPECT_GT(cases.empty_payload, 0);
  EXPECT_GT(cases.large_view_sampled, 0);
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
