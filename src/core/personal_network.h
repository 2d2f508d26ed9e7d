// The personal network: a user's implicit social acquaintances (Section 2.1).
//
// Network(u) holds the s users with the highest similarity scores, each with
// her score, the version of her profile digest, and a timestamp counting
// "for how many cycles she has not been gossiped with". Only the profiles of
// the c highest-scored entries are stored locally (the replicas queries are
// computed from); the remaining s-c entries are ids+digest versions only and
// form the remaining lists of eager mode.
//
// Layout: an entry is 20 trivially copyable bytes and stays in one slot of a
// slot vector from insertion to eviction; a free list hands the slots of
// removed entries to later insertions. The <= c stored replicas live in a
// side array of ProfilePtrs, which an entry names by index, so an entry pins
// no snapshot: only replicas, random views and in-flight messages do. Rank
// order lives apart, in a vector of 12-byte (score, user, slot) keys kept
// sorted by (score desc, id asc), and a flat index maps each member to her
// slot. An accepted offer finds its entry through the index and moves only
// its key, with a binary search and a memmove of the keys in between:
// O(log s + distance moved), no entry or index slot moves, and nothing is
// allocated once the vectors and the index have grown. The vectors start at
// 16 entries and double, but never past s (c for the replicas), so a
// network that never fills never pays for s entries. Ageing runs on a
// per-network gossip clock: each entry records the clock when it was last
// gossiped with, so ageing every neighbour is one increment.
//
// Reads borrow: StoredProfiles and StoredProfileOf hand out pointers and
// references into the replica array, valid until the network changes, so
// sampling proposals or answering a query costs no refcount traffic. A
// caller copies a ProfilePtr only into what outlives the read (a message,
// an offer, another network's replica).
#ifndef P3Q_CORE_PERSONAL_NETWORK_H_
#define P3Q_CORE_PERSONAL_NETWORK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include "common/user_map.h"
#include "gossip/view.h"
#include "profile/profile.h"

namespace p3q {

/// One neighbour of a personal network.
struct NetworkEntry {
  /// `replica` of an entry without a stored profile.
  static constexpr std::uint32_t kNoReplica = 0xffffffffu;

  UserId user = kInvalidUser;
  /// Score_self(user) = common tagging actions (or a similarity scaled by
  /// kSimilarityScale), computed against digest version `digest_version`.
  std::uint32_t score = 0;
  /// Version of the neighbour's profile digest (always present).
  std::uint32_t digest_version = 0;
  /// The owning network's gossip clock when this neighbour joined or was
  /// last gossiped with. PersonalNetwork::Timestamp turns it into the
  /// paper's timestamp (cycles since then).
  std::uint32_t touched_at = 0;
  /// Index of the stored profile replica in the network's replica array
  /// (PersonalNetwork::StoredProfileOf reads it), or kNoReplica. Only
  /// entries ranked in the top-c hold one. Its version is at most
  /// digest_version (older when a newer digest arrived without the profile;
  /// see EntriesNeedingProfile).
  std::uint32_t replica = kNoReplica;

  bool HasStoredProfile() const { return replica != kNoReplica; }
};
static_assert(std::is_trivially_copyable_v<NetworkEntry>);
static_assert(sizeof(NetworkEntry) == 20);

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
 private:
  /// Rank-order key of one entry.
  struct Key {
    std::uint32_t score;
    UserId user;
    std::uint32_t slot;  ///< the entry's index in slots_

    /// The network's order: higher score first, then lower user id, so the
    /// order (and thus the stored top-c set) is deterministic. User ids are
    /// unique within a network, so this is a strict total order:
    /// repositioning one key lands exactly where a full sort would put it.
    static bool Before(const Key& a, const Key& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.user < b.user;
    }
  };
  static_assert(sizeof(Key) == 12);

 public:
  /// The entries in rank order (descending score, ties by ascending user
  /// id), read-only. Valid until the network changes.
  class Entries {
   public:
    class Iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = NetworkEntry;
      using difference_type = std::ptrdiff_t;
      using pointer = const NetworkEntry*;
      using reference = const NetworkEntry&;

      Iterator() = default;
      reference operator*() const { return slots_[key_->slot]; }
      pointer operator->() const { return &slots_[key_->slot]; }
      Iterator& operator++() {
        ++key_;
        return *this;
      }
      Iterator operator++(int) {
        Iterator before = *this;
        ++key_;
        return before;
      }
      bool operator==(const Iterator& other) const {
        return key_ == other.key_;
      }

     private:
      friend class Entries;
      Iterator(const Key* key, const NetworkEntry* slots)
          : key_(key), slots_(slots) {}
      const Key* key_ = nullptr;
      const NetworkEntry* slots_ = nullptr;
    };

    std::size_t size() const { return network_->keys_.size(); }
    const NetworkEntry& operator[](std::size_t rank) const {
      return network_->slots_[network_->keys_[rank].slot];
    }
    Iterator begin() const {
      return Iterator(network_->keys_.data(), network_->slots_.data());
    }
    Iterator end() const {
      return Iterator(network_->keys_.data() + network_->keys_.size(),
                      network_->slots_.data());
    }

   private:
    friend class PersonalNetwork;
    explicit Entries(const PersonalNetwork* network) : network_(network) {}
    const PersonalNetwork* network_;
  };

  /// self: owner; s: network capacity; c: stored-profile capacity (c <= s).
  PersonalNetwork(UserId self, int s, int c);

  int capacity() const { return s_; }
  int storage_capacity() const { return c_; }
  std::size_t size() const { return keys_.size(); }
  bool Empty() const { return keys_.empty(); }

  /// Entries ordered by descending score (ties: ascending user id).
  Entries entries() const { return Entries(this); }

  bool Contains(UserId user) const {
    return index_.Find(user) != UserMap::kAbsent;
  }

  /// Entry of `user`, or nullptr.
  const NetworkEntry* Find(UserId user) const;

  /// Cycles since `entry` (one of this network's) was last gossiped with.
  std::uint32_t Timestamp(const NetworkEntry& entry) const {
    return clock_ - entry.touched_at;
  }

  /// Version of the digest we hold for `user`; kNoVersion when absent.
  static constexpr std::uint32_t kNoVersion = 0xffffffffu;
  std::uint32_t KnownVersion(UserId user) const {
    const std::uint32_t slot = index_.Find(user);
    return slot == UserMap::kAbsent ? kNoVersion : slots_[slot].digest_version;
  }

  /// Offers a scored candidate. Inserts when the score qualifies for the
  /// top-s (score must be > 0), refreshes score/digest version when the
  /// candidate is already a neighbour, stores/evicts replicas so that
  /// exactly the top-c entries hold profiles. Only `digest`'s version is
  /// kept. `replica` may be null when the caller only has the digest; in
  /// that case the entry joins without a stored profile even if it ranks
  /// top-c (the caller should then fetch the profile — see
  /// EntriesNeedingProfile). Throws std::out_of_range for a score that does
  /// not fit in 32 bits.
  ConsiderOutcome Consider(UserId user, std::uint64_t score,
                           const DigestInfo& digest, ProfilePtr replica);

  /// Entries ranked in the top-c whose replica is missing or older than the
  /// digest we know about (they are entitled to storage; the protocol
  /// fetches their profiles in step 3 of Algorithm 1).
  std::vector<UserId> EntriesNeedingProfile() const;

  /// Neighbour with the largest timestamp (the one not gossiped with for
  /// longest; ties: smallest id); kInvalidUser when empty. `skip` users are
  /// excluded (offline retry).
  UserId OldestNeighbour(const std::vector<UserId>& skip = {}) const;

  /// Marks `user` as just-gossiped-with (timestamp 0) and ages every other
  /// neighbour by one cycle. Initiator-side bookkeeping of the lazy mode.
  void TouchGossiped(UserId user);

  /// Resets `user`'s timestamp without ageing the others (responder-side:
  /// the responder did gossip with the initiator this cycle, but her own
  /// ageing happens when she initiates).
  void ResetTimestamp(UserId user);

  /// Stored profile replicas (the c highest-scored entries), in rank order,
  /// borrowed: each points into the replica array and stays valid until the
  /// network changes. Copy the handle only into what outlives the read.
  std::vector<const ProfilePtr*> StoredProfiles() const;

  /// Stored replica of `user`, or null.
  const ProfilePtr& StoredProfileOf(UserId user) const;

  /// Stored replica of `entry` (one of this network's), or null.
  const ProfilePtr& StoredProfileOf(const NetworkEntry& entry) const {
    return entry.HasStoredProfile() ? replicas_[entry.replica] : kNoProfile;
  }

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
  /// into canonical order and rebuilding the index. `replicas[i]` is
  /// entries[i]'s stored replica (null or missing for none) and
  /// `timestamps[i]` its timestamp (0 when missing); the entries' touched_at
  /// and replica fields are ignored. Entries past the top-c lose any stored
  /// replica (the storage invariant).
  void RestoreEntries(const std::vector<NetworkEntry>& entries,
                      std::vector<ProfilePtr> replicas = {},
                      const std::vector<std::uint32_t>& timestamps = {});

  /// Bytes held by the entry slots, the rank keys, the replica array, the
  /// two free lists and the index (their capacities), not counting the
  /// replicas' snapshots.
  std::size_t MemoryBytes() const;

  /// Describes the first violated structural invariant, or returns an empty
  /// string when the network is sound: keys strictly ordered by (score
  /// desc, id asc), each mirroring its slot's entry; index, keys and slots
  /// in one-to-one correspondence (free slots empty); at most c replica
  /// slots, each named exactly once by an entry or the free list (free
  /// ones null); size <= s, the owner absent, no score 0 and every digest
  /// version known; replicas only at ranks below c, each owned by its
  /// entry's user and no newer than the digest.
  std::string CheckInvariants() const;

 private:
  /// Moves keys_[from], whose score just changed or which was just
  /// appended, to its rank among the otherwise sorted keys, drops the one
  /// replica that crossed rank c, and returns the new rank.
  std::size_t Reposition(std::size_t from);

  /// Rank of the member `user` whose key holds `score`.
  std::size_t RankOf(std::uint32_t score, UserId user) const;

  /// Gives `entry` `replica`, reusing her replica-array slot or a free one.
  void StoreReplica(NetworkEntry& entry, ProfilePtr replica);

  /// Releases `entry`'s replica, if any, and frees its slot.
  void DropReplica(NetworkEntry& entry);

  /// StoredProfileOf's answer for an entry without a replica.
  inline static const ProfilePtr kNoProfile;

  /// Ranks that may hold a replica: min(size, c). Every replica-reading
  /// scan stops there.
  std::size_t StoredRanks() const {
    return std::min(keys_.size(), static_cast<std::size_t>(c_));
  }

  UserId self_;
  int s_;
  int c_;
  std::uint32_t clock_ = 0;  ///< gossip clock: ticks once per TouchGossiped
  std::vector<NetworkEntry> slots_;           // stable; free ones are empty
  std::vector<std::uint32_t> free_slots_;     // slots of removed entries
  std::vector<Key> keys_;                     // sorted: score desc, id asc
  std::vector<ProfilePtr> replicas_;          // <= c live; free ones null
  std::vector<std::uint32_t> free_replicas_;  // null slots of replicas_
  UserMap index_;                             // user -> slot
};

}  // namespace p3q

#endif  // P3Q_CORE_PERSONAL_NETWORK_H_
