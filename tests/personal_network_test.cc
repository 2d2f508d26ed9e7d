// Unit tests for core/personal_network: score-ordered bounded neighbour set
// with top-c replica storage and gossip timestamps.
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/personal_network.h"
#include "test_util.h"

namespace p3q {
namespace {

ProfilePtr MakeSnapshot(UserId owner, std::size_t num_actions,
                        std::uint32_t version = 0) {
  return test::MakeDisjointSnapshot(owner, num_actions, version);
}

DigestInfo MakeDigest(UserId owner, std::uint32_t version = 0) {
  return test::MakeDisjointDigest(owner, version);
}

TEST(PersonalNetworkTest, RejectsZeroScoreAndSelf) {
  PersonalNetwork net(1, 5, 2);
  EXPECT_FALSE(net.Consider(2, 0, MakeDigest(2), nullptr).accepted);
  EXPECT_FALSE(net.Consider(1, 10, MakeDigest(1), nullptr).accepted);
  EXPECT_TRUE(net.Empty());
}

TEST(PersonalNetworkTest, OrdersByScoreThenId) {
  PersonalNetwork net(0, 5, 5);
  net.Consider(3, 10, MakeDigest(3), nullptr);
  net.Consider(1, 20, MakeDigest(1), nullptr);
  net.Consider(2, 10, MakeDigest(2), nullptr);
  ASSERT_EQ(net.size(), 3u);
  EXPECT_EQ(net.entries()[0].user, 1u);
  EXPECT_EQ(net.entries()[1].user, 2u);  // tie at 10 -> lower id first
  EXPECT_EQ(net.entries()[2].user, 3u);
}

TEST(PersonalNetworkTest, EnforcesCapacityEvictingWorst) {
  PersonalNetwork net(0, 3, 3);
  net.Consider(1, 10, MakeDigest(1), nullptr);
  net.Consider(2, 20, MakeDigest(2), nullptr);
  net.Consider(3, 30, MakeDigest(3), nullptr);
  // Worse than everything: rejected.
  EXPECT_FALSE(net.Consider(4, 5, MakeDigest(4), nullptr).accepted);
  EXPECT_EQ(net.size(), 3u);
  // Better than the worst: 1 is evicted.
  EXPECT_TRUE(net.Consider(5, 15, MakeDigest(5), nullptr).accepted);
  EXPECT_EQ(net.size(), 3u);
  EXPECT_FALSE(net.Contains(1));
  EXPECT_TRUE(net.Contains(5));
}

TEST(PersonalNetworkTest, StoresProfilesOnlyForTopC) {
  PersonalNetwork net(0, 4, 2);
  net.Consider(1, 10, MakeDigest(1), MakeSnapshot(1, 4));
  net.Consider(2, 20, MakeDigest(2), MakeSnapshot(2, 4));
  net.Consider(3, 30, MakeDigest(3), MakeSnapshot(3, 4));
  net.Consider(4, 40, MakeDigest(4), MakeSnapshot(4, 4));
  // Top-2 by score: 4 and 3.
  EXPECT_NE(net.StoredProfileOf(4), nullptr);
  EXPECT_NE(net.StoredProfileOf(3), nullptr);
  EXPECT_EQ(net.StoredProfileOf(2), nullptr);
  EXPECT_EQ(net.StoredProfileOf(1), nullptr);
  EXPECT_EQ(net.StoredProfiles().size(), 2u);
}

TEST(PersonalNetworkTest, NewTopEntryDisplacesStoredProfile) {
  PersonalNetwork net(0, 4, 1);
  net.Consider(1, 10, MakeDigest(1), MakeSnapshot(1, 4));
  EXPECT_NE(net.StoredProfileOf(1), nullptr);
  // A better candidate takes the single storage slot.
  const ConsiderOutcome outcome =
      net.Consider(2, 50, MakeDigest(2), MakeSnapshot(2, 4));
  EXPECT_TRUE(outcome.stored_profile);
  EXPECT_EQ(net.StoredProfileOf(1), nullptr);
  EXPECT_NE(net.StoredProfileOf(2), nullptr);
}

TEST(PersonalNetworkTest, ConsiderWithoutReplicaLeavesGap) {
  PersonalNetwork net(0, 4, 2);
  net.Consider(1, 10, MakeDigest(1), nullptr);
  EXPECT_EQ(net.StoredProfileOf(1), nullptr);
  const std::vector<UserId> need = net.EntriesNeedingProfile();
  ASSERT_EQ(need.size(), 1u);
  EXPECT_EQ(need[0], 1u);
}

TEST(PersonalNetworkTest, StaleReplicaReportedAsNeedingProfile) {
  PersonalNetwork net(0, 4, 2);
  net.Consider(1, 10, MakeDigest(1, 0), MakeSnapshot(1, 4, 0));
  EXPECT_TRUE(net.EntriesNeedingProfile().empty());
  // A newer digest arrives without the profile body.
  net.Consider(1, 12, MakeDigest(1, 1), nullptr);
  const std::vector<UserId> need = net.EntriesNeedingProfile();
  ASSERT_EQ(need.size(), 1u);
  EXPECT_EQ(need[0], 1u);
  // Old replica still present (usable) until refreshed.
  EXPECT_NE(net.StoredProfileOf(1), nullptr);
  EXPECT_EQ(net.StoredProfileOf(1)->version(), 0u);
}

TEST(PersonalNetworkTest, UpdateRefreshesScoreAndReplica) {
  PersonalNetwork net(0, 4, 2);
  net.Consider(1, 10, MakeDigest(1, 0), MakeSnapshot(1, 4, 0));
  net.Consider(2, 20, MakeDigest(2, 0), MakeSnapshot(2, 4, 0));
  // Version-1 update of user 1 with a higher score reorders the network.
  const ConsiderOutcome outcome =
      net.Consider(1, 30, MakeDigest(1, 1), MakeSnapshot(1, 6, 1));
  EXPECT_TRUE(outcome.accepted);
  EXPECT_TRUE(outcome.stored_profile);  // replica refreshed
  EXPECT_EQ(net.entries()[0].user, 1u);
  EXPECT_EQ(net.StoredProfileOf(1)->version(), 1u);
}

TEST(PersonalNetworkTest, StaleOfferIgnored) {
  PersonalNetwork net(0, 4, 2);
  net.Consider(1, 10, MakeDigest(1, 5), MakeSnapshot(1, 4, 5));
  const ConsiderOutcome outcome =
      net.Consider(1, 3, MakeDigest(1, 2), MakeSnapshot(1, 2, 2));
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(net.Find(1)->score, 10u);
}

TEST(PersonalNetworkTest, SameVersionReofferDoesNotReportTransfer) {
  PersonalNetwork net(0, 4, 2);
  net.Consider(1, 10, MakeDigest(1, 0), MakeSnapshot(1, 4, 0));
  const ConsiderOutcome outcome =
      net.Consider(1, 10, MakeDigest(1, 0), MakeSnapshot(1, 4, 0));
  EXPECT_TRUE(outcome.accepted);
  EXPECT_FALSE(outcome.stored_profile);  // nothing new travelled
}

TEST(PersonalNetworkTest, TimestampsAgeAndReset) {
  PersonalNetwork net(0, 4, 2);
  net.Consider(1, 10, MakeDigest(1), nullptr);
  net.Consider(2, 20, MakeDigest(2), nullptr);
  net.Consider(3, 30, MakeDigest(3), nullptr);
  // Gossip with 2: everyone else ages.
  net.TouchGossiped(2);
  EXPECT_EQ(net.Timestamp(*net.Find(2)), 0u);
  EXPECT_EQ(net.Timestamp(*net.Find(1)), 1u);
  EXPECT_EQ(net.Timestamp(*net.Find(3)), 1u);
  net.TouchGossiped(1);
  // Oldest is now 3 (timestamp 2).
  EXPECT_EQ(net.OldestNeighbour(), 3u);
  // Skip list excludes 3: next oldest by tie-break (1 at ts 0 vs 2 at ts 1).
  EXPECT_EQ(net.OldestNeighbour({3}), 2u);
  net.ResetTimestamp(3);
  EXPECT_EQ(net.Timestamp(*net.Find(3)), 0u);
}

TEST(PersonalNetworkTest, OldestNeighbourOnEmpty) {
  PersonalNetwork net(0, 4, 2);
  EXPECT_EQ(net.OldestNeighbour(), kInvalidUser);
}

TEST(PersonalNetworkTest, MembersAndMembersWithoutProfile) {
  PersonalNetwork net(0, 4, 1);
  net.Consider(1, 10, MakeDigest(1), MakeSnapshot(1, 4));
  net.Consider(2, 20, MakeDigest(2), MakeSnapshot(2, 4));
  net.Consider(3, 5, MakeDigest(3), MakeSnapshot(3, 4));
  EXPECT_EQ(net.Members(), (std::vector<UserId>{2, 1, 3}));
  // Only 2 (top-1) holds a profile; the remaining list is {1, 3}.
  EXPECT_EQ(net.MembersWithoutProfile(), (std::vector<UserId>{1, 3}));
}

TEST(PersonalNetworkTest, RemoveDropsEntryAndPromotesStorage) {
  PersonalNetwork net(0, 4, 1);
  net.Consider(1, 10, MakeDigest(1), MakeSnapshot(1, 4));
  net.Consider(2, 20, MakeDigest(2), MakeSnapshot(2, 4));
  EXPECT_NE(net.StoredProfileOf(2), nullptr);
  net.Remove(2);
  EXPECT_FALSE(net.Contains(2));
  EXPECT_EQ(net.size(), 1u);
  // User 1 is now top-c but its replica was dropped earlier; it must be
  // reported as needing a profile.
  EXPECT_EQ(net.EntriesNeedingProfile(), (std::vector<UserId>{1}));
}

TEST(PersonalNetworkTest, StoredProfileActionsSumsLengths) {
  PersonalNetwork net(0, 4, 2);
  net.Consider(1, 10, MakeDigest(1), MakeSnapshot(1, 3));
  net.Consider(2, 20, MakeDigest(2), MakeSnapshot(2, 5));
  EXPECT_EQ(net.StoredProfileActions(), 8u);
}

TEST(PersonalNetworkTest, KnownVersionSentinel) {
  PersonalNetwork net(0, 4, 2);
  EXPECT_EQ(net.KnownVersion(9), PersonalNetwork::kNoVersion);
  net.Consider(1, 10, MakeDigest(1, 7), nullptr);
  EXPECT_EQ(net.KnownVersion(1), 7u);
}

TEST(PersonalNetworkTest, ScoreBeyond32BitsThrows) {
  PersonalNetwork net(0, 4, 2);
  const std::uint64_t top = std::numeric_limits<std::uint32_t>::max();
  EXPECT_TRUE(net.Consider(1, top, MakeDigest(1), nullptr).accepted);
  EXPECT_EQ(net.Find(1)->score, top);
  EXPECT_THROW(net.Consider(2, top + 1, MakeDigest(2), nullptr),
               std::out_of_range);
  EXPECT_FALSE(net.Contains(2));
}

TEST(PersonalNetworkTest, RefreshedOrEvictedSnapshotsAreFreed) {
  // An entry keeps its digest's version, not the snapshot: once no replica,
  // view or message holds an old snapshot, it is gone.
  PersonalNetwork net(0, /*s=*/2, /*c=*/1);
  std::weak_ptr<const Profile> digest_only;
  DigestInfo in_view;  // a random view's copy of the same digest
  {
    const ProfilePtr v0 = MakeSnapshot(1, 4, 0);
    digest_only = v0;
    in_view = DigestInfo{1, v0};
    net.Consider(1, 10, DigestInfo{1, v0}, nullptr);
  }
  EXPECT_FALSE(digest_only.expired());
  in_view = DigestInfo{};
  EXPECT_TRUE(digest_only.expired());
  EXPECT_EQ(net.KnownVersion(1), 0u);

  // Refreshed: the replica of version 1 gives way to version 2's.
  std::weak_ptr<const Profile> refreshed;
  {
    const ProfilePtr v1 = MakeSnapshot(1, 4, 1);
    refreshed = v1;
    EXPECT_TRUE(net.Consider(1, 10, DigestInfo{1, v1}, v1).stored_profile);
  }
  EXPECT_FALSE(refreshed.expired());
  std::weak_ptr<const Profile> pushed_out;
  {
    const ProfilePtr v2 = MakeSnapshot(1, 4, 2);
    pushed_out = v2;
    EXPECT_TRUE(net.Consider(1, 10, DigestInfo{1, v2}, v2).stored_profile);
  }
  EXPECT_TRUE(refreshed.expired());
  EXPECT_EQ(net.KnownVersion(1), 2u);

  // Pushed past rank c: user 2 takes the one storage slot, and user 1's
  // replica goes.
  {
    const ProfilePtr w = MakeSnapshot(2, 4);
    EXPECT_TRUE(net.Consider(2, 20, DigestInfo{2, w}, w).stored_profile);
  }
  EXPECT_TRUE(pushed_out.expired());
  EXPECT_EQ(net.StoredProfileOf(1), nullptr);
  EXPECT_EQ(net.CheckInvariants(), "");

  // Evicted: with s = c the worst entry holds a replica, and a better
  // candidate's arrival frees it.
  PersonalNetwork full(0, /*s=*/1, /*c=*/1);
  std::weak_ptr<const Profile> evicted;
  {
    const ProfilePtr w = MakeSnapshot(2, 4);
    evicted = w;
    EXPECT_TRUE(full.Consider(2, 20, DigestInfo{2, w}, w).stored_profile);
  }
  EXPECT_FALSE(evicted.expired());
  EXPECT_TRUE(full.Consider(3, 30, MakeDigest(3), nullptr).accepted);
  EXPECT_FALSE(full.Contains(2));
  EXPECT_TRUE(evicted.expired());
  EXPECT_EQ(full.CheckInvariants(), "");
}

/// Tracks a network's Revision() between steps.
class RevisionWatch {
 public:
  explicit RevisionWatch(const PersonalNetwork& net)
      : net_(net), seen_(net.Revision()) {}

  /// True when the revision moved since the last call.
  bool Moved() {
    const bool moved = net_.Revision() != seen_;
    seen_ = net_.Revision();
    return moved;
  }

 private:
  const PersonalNetwork& net_;
  std::uint64_t seen_;
};

TEST(PersonalNetworkTest, RevisionMovesWithMembershipScoreVersionAndReplica) {
  PersonalNetwork net(0, /*s=*/3, /*c=*/2);
  RevisionWatch watch(net);
  // Membership: joins, and a join that evicts the worst.
  EXPECT_TRUE(net.Consider(1, 10, MakeDigest(1), MakeSnapshot(1, 4)).accepted);
  EXPECT_TRUE(watch.Moved()) << "join";
  net.Consider(2, 20, MakeDigest(2), MakeSnapshot(2, 4));
  net.Consider(3, 30, MakeDigest(3), nullptr);
  EXPECT_TRUE(watch.Moved()) << "joins";
  EXPECT_TRUE(net.Consider(4, 15, MakeDigest(4), nullptr).accepted);
  EXPECT_FALSE(net.Contains(1));
  EXPECT_TRUE(watch.Moved()) << "join evicting the worst";
  // Refreshes of an existing member: the score, the digest version, the
  // replica, and a re-offer that changes nothing but is accepted.
  EXPECT_TRUE(net.Consider(4, 25, MakeDigest(4), nullptr).accepted);
  EXPECT_TRUE(watch.Moved()) << "score refresh";
  EXPECT_TRUE(net.Consider(4, 25, MakeDigest(4, 1), nullptr).accepted);
  EXPECT_TRUE(watch.Moved()) << "digest version refresh";
  EXPECT_TRUE(
      net.Consider(3, 30, MakeDigest(3), MakeSnapshot(3, 4)).stored_profile);
  EXPECT_TRUE(watch.Moved()) << "replica stored";
  EXPECT_TRUE(net.Consider(3, 30, MakeDigest(3), nullptr).accepted);
  EXPECT_TRUE(watch.Moved()) << "accepted re-offer";
  // Removal, and a restore.
  net.Remove(2);
  EXPECT_TRUE(watch.Moved()) << "remove";
  const std::vector<NetworkEntry> entries(net.entries().begin(),
                                          net.entries().end());
  net.RestoreEntries(entries);
  EXPECT_TRUE(watch.Moved()) << "restore";
}

TEST(PersonalNetworkTest, RevisionIgnoresRejectionsAndTimestamps) {
  PersonalNetwork net(0, /*s=*/2, /*c=*/1);
  net.Consider(1, 10, MakeDigest(1, 3), MakeSnapshot(1, 4, 3));
  net.Consider(2, 20, MakeDigest(2), nullptr);
  RevisionWatch watch(net);
  EXPECT_FALSE(net.Consider(3, 5, MakeDigest(3), nullptr).accepted);
  EXPECT_FALSE(watch.Moved()) << "below the worst of a full network";
  EXPECT_FALSE(net.Consider(1, 40, MakeDigest(1, 2), nullptr).accepted);
  EXPECT_FALSE(watch.Moved()) << "stale digest version";
  EXPECT_FALSE(net.Consider(0, 40, MakeDigest(0), nullptr).accepted);
  EXPECT_FALSE(net.Consider(4, 0, MakeDigest(4), nullptr).accepted);
  EXPECT_FALSE(watch.Moved()) << "self, zero score";
  net.Remove(9);
  EXPECT_FALSE(watch.Moved()) << "removing a non-member";
  net.TouchGossiped(1);
  net.ResetTimestamp(2);
  net.ResetTimestamp(9);
  EXPECT_FALSE(watch.Moved()) << "timestamps";
  EXPECT_EQ(net.Timestamp(*net.Find(2)), 0u);
}

}  // namespace
}  // namespace p3q
