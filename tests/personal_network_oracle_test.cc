// Differential test of core/personal_network against the sort-based
// implementation it replaced. PersonalNetwork keeps 20-byte entries in
// stable slots that hold a digest version and an index into a side array of
// replicas, moves one 12-byte rank key per accepted offer (binary search +
// memmove), finds members through a flat index and ages neighbours with a
// gossip clock; the oracle below keeps one vector of entries that carry the
// whole digest snapshot and replica pointer, re-sorts it and drops replicas
// past rank c after every change, stores every timestamp explicitly and ages
// all of them on TouchGossiped, and scans every entry for each query,
// exactly as the original did. Randomized seeded operation streams must
// leave both with identical entries (digest versions against the oracle's
// snapshots, replicas by pointer), timestamps, outcomes and query answers,
// and the rewrite must pass CheckInvariants() after every step.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/personal_network.h"
#include "test_util.h"

namespace p3q {
namespace {

/// An oracle entry, as the original network held it: the digest snapshot
/// and the replica pointer inline, plus an explicit timestamp.
struct OracleEntry {
  UserId user = kInvalidUser;
  std::uint64_t score = 0;
  DigestInfo digest;
  ProfilePtr stored_profile;
  std::uint32_t timestamp = 0;

  bool HasStoredProfile() const { return stored_profile != nullptr; }
};

/// The original sort-based personal network (reference semantics only).
class SortedNetworkOracle {
 public:
  SortedNetworkOracle(UserId self, int s, int c) : self_(self), s_(s), c_(c) {}

  const std::vector<OracleEntry>& entries() const { return entries_; }

  const OracleEntry* Find(UserId user) const {
    for (const OracleEntry& e : entries_) {
      if (e.user == user) return &e;
    }
    return nullptr;
  }

  ConsiderOutcome Consider(UserId user, std::uint64_t score,
                           const DigestInfo& digest, ProfilePtr replica) {
    ConsiderOutcome outcome;
    if (user == self_ || score == 0) return outcome;
    if (OracleEntry* entry = FindMutable(user); entry != nullptr) {
      if (digest.version() < entry->digest.version()) return outcome;
      const std::uint32_t old_stored =
          entry->HasStoredProfile() ? entry->stored_profile->version()
                                    : PersonalNetwork::kNoVersion;
      entry->score = score;
      entry->digest = digest;
      if (replica != nullptr && (old_stored == PersonalNetwork::kNoVersion ||
                                 replica->version() > old_stored)) {
        entry->stored_profile = std::move(replica);
      }
      SortAndRebalance();
      const OracleEntry* now = Find(user);
      outcome.accepted = true;
      outcome.stored_profile =
          now->HasStoredProfile() &&
          (old_stored == PersonalNetwork::kNoVersion ||
           now->stored_profile->version() > old_stored);
      return outcome;
    }
    if (static_cast<int>(entries_.size()) >= s_) {
      OracleEntry probe;
      probe.user = user;
      probe.score = score;
      if (!EntryBefore(probe, entries_.back())) return outcome;
      entries_.pop_back();
    }
    OracleEntry entry;
    entry.user = user;
    entry.score = score;
    entry.digest = digest;
    entry.stored_profile = std::move(replica);
    entries_.push_back(std::move(entry));
    SortAndRebalance();
    outcome.accepted = true;
    outcome.stored_profile = Find(user)->HasStoredProfile();
    return outcome;
  }

  void Remove(UserId user) {
    auto it =
        std::find_if(entries_.begin(), entries_.end(),
                     [&](const OracleEntry& e) { return e.user == user; });
    if (it == entries_.end()) return;
    entries_.erase(it);
    SortAndRebalance();
  }

  void TouchGossiped(UserId user) {
    for (OracleEntry& e : entries_) {
      e.timestamp = e.user == user ? 0 : e.timestamp + 1;
    }
  }

  void ResetTimestamp(UserId user) {
    if (OracleEntry* e = FindMutable(user); e != nullptr) e->timestamp = 0;
  }

  void RestoreEntries(std::vector<OracleEntry> entries) {
    entries_ = std::move(entries);
    SortAndRebalance();
  }

  UserId OldestNeighbour(const std::vector<UserId>& skip) const {
    UserId best = kInvalidUser;
    std::uint32_t best_ts = 0;
    for (const OracleEntry& e : entries_) {
      if (std::find(skip.begin(), skip.end(), e.user) != skip.end()) continue;
      if (best == kInvalidUser || e.timestamp > best_ts ||
          (e.timestamp == best_ts && e.user < best)) {
        best = e.user;
        best_ts = e.timestamp;
      }
    }
    return best;
  }

  std::vector<ProfilePtr> StoredProfiles() const {
    std::vector<ProfilePtr> out;
    for (const OracleEntry& e : entries_) {
      if (e.HasStoredProfile()) out.push_back(e.stored_profile);
    }
    return out;
  }

  std::vector<UserId> EntriesNeedingProfile() const {
    std::vector<UserId> out;
    for (std::size_t i = 0;
         i < std::min(entries_.size(), static_cast<std::size_t>(c_)); ++i) {
      const OracleEntry& e = entries_[i];
      if (!e.HasStoredProfile() ||
          e.stored_profile->version() < e.digest.version()) {
        out.push_back(e.user);
      }
    }
    return out;
  }

  std::vector<UserId> MembersWithoutProfile() const {
    std::vector<UserId> out;
    for (const OracleEntry& e : entries_) {
      if (!e.HasStoredProfile()) out.push_back(e.user);
    }
    return out;
  }

  std::size_t StoredProfileActions() const {
    std::size_t total = 0;
    for (const OracleEntry& e : entries_) {
      if (e.HasStoredProfile()) total += e.stored_profile->Length();
    }
    return total;
  }

 private:
  static bool EntryBefore(const OracleEntry& a, const OracleEntry& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.user < b.user;
  }

  OracleEntry* FindMutable(UserId user) {
    return const_cast<OracleEntry*>(Find(user));
  }

  void SortAndRebalance() {
    std::sort(entries_.begin(), entries_.end(), EntryBefore);
    for (std::size_t i = static_cast<std::size_t>(c_); i < entries_.size();
         ++i) {
      entries_[i].stored_profile.reset();
    }
  }

  UserId self_;
  int s_;
  int c_;
  std::vector<OracleEntry> entries_;
};

::testing::AssertionResult SameEntries(const PersonalNetwork& net,
                                       const SortedNetworkOracle& oracle) {
  const PersonalNetwork::Entries got = net.entries();
  const std::vector<OracleEntry>& want = oracle.entries();
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs oracle " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const NetworkEntry& g = got[i];
    const OracleEntry& w = want[i];
    if (g.user != w.user || g.score != w.score || w.digest.user != g.user ||
        g.digest_version != w.digest.version() ||
        net.Timestamp(g) != w.timestamp ||
        net.StoredProfileOf(g) != w.stored_profile) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": user " << g.user << " score " << g.score
             << " ts " << net.Timestamp(g) << " replica "
             << (g.HasStoredProfile() ? "yes" : "no") << " vs oracle user "
             << w.user << " score " << w.score << " ts " << w.timestamp
             << " replica " << (w.HasStoredProfile() ? "yes" : "no");
    }
  }
  return ::testing::AssertionSuccess();
}

/// How often the random streams hit each interesting case, summed over all
/// geometries; every counter must end up positive.
struct Coverage {
  int score_ties = 0;
  int moved_up = 0;
  int moved_down = 0;
  int crossed_c = 0;
  int stale_rejections = 0;
  int evictions = 0;
  int restores = 0;
  int timestamp_ties = 0;    ///< OldestNeighbour picked among equal ages
  int skip_changed_pick = 0; ///< the skip list excluded the oldest
  int stale_replicas = 0;    ///< a top-c replica older than its digest
};

std::ptrdiff_t RankOf(const std::vector<OracleEntry>& entries, UserId user) {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].user == user) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

/// A restore timestamp: mostly small, sometimes just below 2^32 so that
/// later ageing wraps around.
std::uint32_t RandomTimestamp(Rng* rng) {
  if (rng->NextBool(0.75)) {
    return static_cast<std::uint32_t>(rng->NextUint64(20));
  }
  return 0xffffffffu - static_cast<std::uint32_t>(rng->NextUint64(8));
}

/// Runs `ops` seeded random operations against both implementations.
void RunDifferential(int s, int c, int ops, std::uint64_t seed,
                     Coverage* cov) {
  SCOPED_TRACE("s=" + std::to_string(s) + " c=" + std::to_string(c) +
               " seed=" + std::to_string(seed));
  constexpr std::uint32_t kVersions = 4;
  // Half again as many users as slots, so the network fills and evicts and
  // evicted users come back.
  const UserId pool = static_cast<UserId>(s + s / 2 + 3);
  const UserId self = pool / 2;
  // Scores from a narrow range so ties are common.
  const std::uint64_t max_score = static_cast<std::uint64_t>(std::max(3, s / 4));

  std::vector<std::vector<ProfilePtr>> snapshots(pool);
  for (UserId u = 0; u < pool; ++u) {
    for (std::uint32_t v = 0; v < kVersions; ++v) {
      snapshots[u].push_back(
          test::MakeDisjointSnapshot(u, 1 + v, v, /*digest_bits=*/64));
    }
  }

  PersonalNetwork net(self, s, c);
  SortedNetworkOracle oracle(self, s, c);
  Rng rng(seed);
  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const UserId user = static_cast<UserId>(rng.NextUint64(pool));
    const std::uint64_t pick = rng.NextUint64(100);
    if (pick < 70) {
      const std::uint64_t score = rng.NextUint64(max_score + 1);  // 0 too
      const std::uint32_t version =
          static_cast<std::uint32_t>(rng.NextUint64(kVersions));
      const DigestInfo digest{user, snapshots[user][version]};
      ProfilePtr replica;  // null a quarter of the time
      const std::uint64_t kind = rng.NextUint64(4);
      if (kind == 1 || kind == 2) {
        replica = digest.snapshot;
      } else if (kind == 3) {
        replica = snapshots[user][rng.NextUint64(version + 1)];  // maybe older
      }

      const std::ptrdiff_t before = RankOf(oracle.entries(), user);
      const bool full = static_cast<int>(oracle.entries().size()) >= s;
      const std::uint32_t known =
          before < 0 ? PersonalNetwork::kNoVersion
                     : oracle.entries()[before].digest.version();
      const ConsiderOutcome want =
          oracle.Consider(user, score, digest, replica);
      const ConsiderOutcome got = net.Consider(user, score, digest, replica);
      ASSERT_EQ(got.accepted, want.accepted);
      ASSERT_EQ(got.stored_profile, want.stored_profile);

      const std::ptrdiff_t after = RankOf(oracle.entries(), user);
      if (before >= 0 && !want.accepted && user != self && score > 0 &&
          version < known) {
        ++cov->stale_rejections;
      }
      if (before < 0 && want.accepted && full) ++cov->evictions;
      if (before >= 0 && want.accepted) {
        if (after < before) ++cov->moved_up;
        if (after > before) ++cov->moved_down;
        if ((before < c) != (after < c)) ++cov->crossed_c;
      }
      if (want.accepted) {
        for (const OracleEntry& e : oracle.entries()) {
          if (e.user != user && e.score == score) {
            ++cov->score_ties;
            break;
          }
        }
      }
    } else if (pick < 78) {
      oracle.Remove(user);
      net.Remove(user);
    } else if (pick < 86) {
      oracle.TouchGossiped(user);
      net.TouchGossiped(user);
    } else if (pick < 94) {
      oracle.ResetTimestamp(user);
      net.ResetTimestamp(user);
    } else {
      // A checkpoint-style restore of the current contents in scrambled
      // order, with random timestamps and replicas handed to arbitrary
      // ranks (including past c) so the restore must re-establish the
      // storage invariant.
      std::vector<OracleEntry> scrambled = oracle.entries();
      rng.Shuffle(&scrambled);
      std::vector<std::uint32_t> timestamps;
      for (OracleEntry& e : scrambled) {
        if (rng.NextBool(0.5)) e.stored_profile = e.digest.snapshot;
        e.timestamp = RandomTimestamp(&rng);
        timestamps.push_back(e.timestamp);
      }
      std::vector<NetworkEntry> entries;
      std::vector<ProfilePtr> replicas;
      for (const OracleEntry& e : scrambled) {
        entries.push_back(NetworkEntry{
            .user = e.user,
            .score = static_cast<std::uint32_t>(e.score),
            .digest_version = e.digest.version()});
        replicas.push_back(e.stored_profile);
      }
      net.RestoreEntries(entries, std::move(replicas), timestamps);
      oracle.RestoreEntries(std::move(scrambled));
      ++cov->restores;
    }

    ASSERT_TRUE(SameEntries(net, oracle));
    const std::string broken = net.CheckInvariants();
    ASSERT_TRUE(broken.empty()) << broken;
    // The index answers exactly like a scan of the oracle.
    const NetworkEntry* found = net.Find(user);
    const OracleEntry* expected = oracle.Find(user);
    ASSERT_EQ(found == nullptr, expected == nullptr);
    if (found != nullptr) {
      ASSERT_EQ(found->user, user);
    }
    ASSERT_EQ(net.KnownVersion(user),
              expected == nullptr ? PersonalNetwork::kNoVersion
                                  : expected->digest.version());

    // The oldest-neighbour pick, without and with a random skip list.
    std::vector<UserId> skip;
    const std::uint64_t num_skip = rng.NextUint64(4);
    for (std::uint64_t k = 0; k < num_skip; ++k) {
      skip.push_back(static_cast<UserId>(rng.NextUint64(pool)));
    }
    const UserId oldest = oracle.OldestNeighbour({});
    ASSERT_EQ(net.OldestNeighbour(), oldest);
    ASSERT_EQ(net.OldestNeighbour(skip), oracle.OldestNeighbour(skip));
    if (oracle.OldestNeighbour(skip) != oldest) ++cov->skip_changed_pick;
    if (oldest != kInvalidUser) {
      const std::uint32_t oldest_ts = oracle.Find(oldest)->timestamp;
      for (const OracleEntry& e : oracle.entries()) {
        if (e.user != oldest && e.timestamp == oldest_ts) {
          ++cov->timestamp_ties;
          break;
        }
      }
    }

    // The replica-reading queries, which the rewrite stops at rank c.
    std::vector<ProfilePtr> stored;
    for (const ProfilePtr* p : net.StoredProfiles()) stored.push_back(*p);
    ASSERT_EQ(stored, oracle.StoredProfiles());
    ASSERT_EQ(net.EntriesNeedingProfile(), oracle.EntriesNeedingProfile());
    ASSERT_EQ(net.MembersWithoutProfile(), oracle.MembersWithoutProfile());
    ASSERT_EQ(net.StoredProfileActions(), oracle.StoredProfileActions());
    for (const OracleEntry& e : oracle.entries()) {
      if (e.HasStoredProfile() &&
          e.stored_profile->version() < e.digest.version()) {
        ++cov->stale_replicas;
        break;
      }
    }
  }
}

TEST(PersonalNetworkOracleTest, MatchesSortBasedNetworkOnRandomStreams) {
  Coverage cov;
  std::uint64_t seed = 1;
  for (const int s : {1, 2, 10, 150, 500}) {
    for (const int c : {0, 1, s}) {
      RunDifferential(s, c, /*ops=*/3000, seed++, &cov);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(cov.score_ties, 0);
  EXPECT_GT(cov.moved_up, 0);
  EXPECT_GT(cov.moved_down, 0);
  EXPECT_GT(cov.crossed_c, 0);
  EXPECT_GT(cov.stale_rejections, 0);
  EXPECT_GT(cov.evictions, 0);
  EXPECT_GT(cov.restores, 0);
  EXPECT_GT(cov.timestamp_ties, 0);
  EXPECT_GT(cov.skip_changed_pick, 0);
  EXPECT_GT(cov.stale_replicas, 0);
}

TEST(PersonalNetworkOracleTest, CheckInvariantsNamesEachViolation) {
  const auto entry = [](UserId user, std::uint32_t score,
                        std::uint32_t version = 0) {
    return NetworkEntry{
        .user = user, .score = score, .digest_version = version};
  };
  const auto violation = [](int s, int c,
                            const std::vector<NetworkEntry>& entries,
                            std::vector<ProfilePtr> replicas = {}) {
    PersonalNetwork net(/*self=*/0, s, c);
    net.RestoreEntries(entries, std::move(replicas));
    return net.CheckInvariants();
  };

  EXPECT_EQ(violation(3, 1, {entry(1, 5), entry(2, 5)}), "");
  EXPECT_NE(violation(1, 1, {entry(1, 5), entry(2, 4)}).find("capacity"),
            std::string::npos);
  EXPECT_NE(violation(3, 1, {entry(0, 5)}).find("owner"), std::string::npos);
  EXPECT_NE(violation(3, 1, {entry(1, 0)}).find("score 0"), std::string::npos);
  // A duplicated user collapses to one index slot.
  EXPECT_NE(violation(3, 1, {entry(1, 5), entry(1, 4)}).find("index"),
            std::string::npos);

  EXPECT_NE(violation(3, 1, {entry(1, 5, PersonalNetwork::kNoVersion)})
                .find("no digest version"),
            std::string::npos);

  EXPECT_NE(violation(3, 1, {entry(1, 5)}, {test::MakeDisjointSnapshot(2, 4)})
                .find("profile"),
            std::string::npos);

  EXPECT_NE(violation(3, 1, {entry(1, 5, /*version=*/0)},
                      {test::MakeDisjointSnapshot(1, 4, /*version=*/1)})
                .find("newer than its digest"),
            std::string::npos);
}

}  // namespace
}  // namespace p3q
