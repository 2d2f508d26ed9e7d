// The personal network: a user's implicit social acquaintances (Section 2.1).
//
// Network(u) holds the s users with the highest similarity scores, each with
// her score, profile digest, and a timestamp counting "for how many cycles
// she has not been gossiped with". Only the profiles of the c highest-scored
// entries are stored locally (the replicas queries are computed from); the
// remaining s-c entries are ids+digests only and form the remaining lists of
// eager mode.
//
// Layout: the entries live in one vector kept sorted by (score desc, id asc)
// plus a flat open-addressing index user -> position. An accepted offer
// moves one entry to its new rank with a binary search and a rotate, so it
// costs O(log s + distance moved) and allocates nothing once the vector and
// index have grown.
#ifndef P3Q_CORE_PERSONAL_NETWORK_H_
#define P3Q_CORE_PERSONAL_NETWORK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gossip/view.h"
#include "profile/profile.h"

namespace p3q {

/// One neighbour of a personal network.
struct NetworkEntry {
  UserId user = kInvalidUser;
  /// Score_self(user) = common tagging actions, computed against the
  /// `digest` snapshot version.
  std::uint64_t score = 0;
  /// Digest descriptor of the neighbour (always present).
  DigestInfo digest;
  /// Cycles since this neighbour was last gossiped with.
  std::uint32_t timestamp = 0;
  /// Stored profile replica — non-null only while the entry ranks in the
  /// top-c. Its version is at most digest.version() (older when a newer
  /// digest arrived without the profile; see EntriesNeedingProfile).
  ProfilePtr stored_profile;

  bool HasStoredProfile() const { return stored_profile != nullptr; }
};

/// Outcome of offering a candidate to the network.
struct ConsiderOutcome {
  /// Candidate was inserted or its replica/score was refreshed.
  bool accepted = false;
  /// Candidate now ranks in the top-c and its profile replica was stored
  /// (the caller must account the full-profile transfer).
  bool stored_profile = false;
};

/// A size-bounded, score-ordered set of neighbours.
class PersonalNetwork {
 public:
  /// self: owner; s: network capacity; c: stored-profile capacity (c <= s).
  PersonalNetwork(UserId self, int s, int c);

  int capacity() const { return s_; }
  int storage_capacity() const { return c_; }
  std::size_t size() const { return entries_.size(); }
  bool Empty() const { return entries_.empty(); }

  /// Entries ordered by descending score (ties: ascending user id).
  const std::vector<NetworkEntry>& entries() const { return entries_; }

  bool Contains(UserId user) const {
    return index_.Find(user) != PositionIndex::kAbsent;
  }

  /// Entry of `user`, or nullptr.
  const NetworkEntry* Find(UserId user) const;

  /// Version of the digest we hold for `user`; kNoVersion when absent.
  static constexpr std::uint32_t kNoVersion = 0xffffffffu;
  std::uint32_t KnownVersion(UserId user) const;

  /// Offers a scored candidate. Inserts when the score qualifies for the
  /// top-s (score must be > 0), refreshes score/digest when the candidate is
  /// already a neighbour, stores/evicts replicas so that exactly the top-c
  /// entries hold profiles. `replica` may be null when the caller only has
  /// the digest; in that case the entry joins without a stored profile even
  /// if it ranks top-c (the caller should then fetch the profile — see
  /// EntriesNeedingProfile).
  ConsiderOutcome Consider(UserId user, std::uint64_t score,
                           const DigestInfo& digest, ProfilePtr replica);

  /// Entries ranked in the top-c whose replica is missing or older than the
  /// digest we know about (they are entitled to storage; the protocol
  /// fetches their profiles in step 3 of Algorithm 1).
  std::vector<UserId> EntriesNeedingProfile() const;

  /// Neighbour with the largest timestamp (the one not gossiped with for
  /// longest); kInvalidUser when empty. `skip` users are excluded (offline
  /// retry).
  UserId OldestNeighbour(const std::vector<UserId>& skip = {}) const;

  /// Marks `user` as just-gossiped-with (timestamp 0) and ages every other
  /// neighbour by one cycle. Initiator-side bookkeeping of the lazy mode.
  void TouchGossiped(UserId user);

  /// Resets `user`'s timestamp without ageing the others (responder-side:
  /// the responder did gossip with the initiator this cycle, but her own
  /// ageing happens when she initiates).
  void ResetTimestamp(UserId user);

  /// Stored profile replicas (the c highest-scored entries).
  std::vector<ProfilePtr> StoredProfiles() const;

  /// Stored replica of `user`, or null.
  ProfilePtr StoredProfileOf(UserId user) const;

  /// All member ids (score order).
  std::vector<UserId> Members() const;

  /// Member ids without a stored replica — the initial remaining list of a
  /// query (score order).
  std::vector<UserId> MembersWithoutProfile() const;

  /// Removes a user entirely (e.g. permanently departed).
  void Remove(UserId user);

  /// Sum of stored-replica lengths (the paper's storage metric, Fig. 5).
  std::size_t StoredProfileActions() const;

  /// Checkpoint restore: replaces the contents with `entries`, re-sorting
  /// into canonical order and rebuilding the index. Entries past the top-c
  /// lose any stored replica (the storage invariant).
  void RestoreEntries(std::vector<NetworkEntry> entries);

  /// Describes the first violated structural invariant, or returns an empty
  /// string when the network is sound: entries strictly ordered by
  /// (score desc, id asc); index and entries in one-to-one correspondence;
  /// size <= s, the owner absent and no score 0; replicas only at ranks
  /// below c, each owned by its entry's user and no newer than the digest.
  std::string CheckInvariants() const;

 private:
  /// user -> position in entries_: linear probing over a power-of-two table
  /// of (user, position) slots kept at most half full. It grows with the
  /// network (16 slots at first, 1024 at s = 500), so a sparse network
  /// never pays for capacity s.
  class PositionIndex {
   public:
    static constexpr std::uint32_t kAbsent = 0xffffffffu;

    std::uint32_t Find(UserId user) const;
    /// Inserts `user` or re-points it.
    void Set(UserId user, std::uint32_t pos);
    void Erase(UserId user);
    void Clear();
    std::size_t size() const { return size_; }

   private:
    struct Slot {
      UserId user = kInvalidUser;
      std::uint32_t pos = 0;
    };
    std::size_t Home(UserId user) const;
    void Grow();

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    int shift_ = 64;  // 64 - log2(slots_.size())
  };

  /// Moves entries_[from] — whose key just changed or which was just
  /// appended — to its rank in the otherwise sorted vector, re-points the
  /// index over the shifted range, and drops the one replica that crossed
  /// rank c. Returns the new position.
  std::size_t Reposition(std::size_t from);

  UserId self_;
  int s_;
  int c_;
  std::vector<NetworkEntry> entries_;  // sorted: score desc, id asc
  PositionIndex index_;
};

}  // namespace p3q

#endif  // P3Q_CORE_PERSONAL_NETWORK_H_
