// Authoritative per-user profile versions.
//
// The store owns, for every user, the *current* snapshot of her profile.
// Nodes in the simulation hold ProfilePtr replicas; comparing a replica's
// version with the store's current version tells whether the replica is
// stale. Applying an update batch (users tagging new items, Section 3.4.1)
// publishes new snapshots without touching existing replicas.
//
// Memory model (the million-user path):
//  - Every snapshot's packed block (actions + ScoreIndex) is allocated from
//    one of the store's slab arenas, sharded by user id so plan threads
//    publishing concurrently don't contend on one allocator lock.
//  - An update builds the next snapshot through the one Profile
//    constructor, over the old actions plus the new ones.
//  - A checkpoint restore reuses a user's current snapshot when the
//    checkpoint holds the same version and actions (in a freshly built
//    system, every user still at version 0), instead of rebuilding digest
//    + index; hits and misses are counted for MemoryStats.
//  - When told to (streaming traces), the store retains each updated
//    user's original version-0 actions so workload generation can keep
//    drawing against the original dataset without materializing it.
#ifndef P3Q_PROFILE_PROFILE_STORE_H_
#define P3Q_PROFILE_PROFILE_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "profile/profile.h"

namespace p3q {

/// Memory footprint counters of one ProfileStore (P3QSystem::MemoryStats
/// rolls this up into the --timing report).
struct ProfileStoreMemoryStats {
  /// Summed over the store's arena shards.
  ArenaStats arena;
  /// Checkpoint-restore reuse counters (ProfileStore::PoolFind).
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
};

/// Owns the current profile snapshot of every user.
class ProfileStore {
 public:
  /// Arena shards; user u allocates from arena u % kArenaShards.
  static constexpr std::size_t kArenaShards = 8;

  ProfileStore();

  /// Movable: the builder paths return stores by value, and P3QSystem
  /// adopts one.
  ProfileStore(ProfileStore&&) noexcept = default;
  ProfileStore& operator=(ProfileStore&&) = delete;
  ProfileStore(const ProfileStore&) = delete;
  ProfileStore& operator=(const ProfileStore&) = delete;

  /// Initializes user `user`'s profile from raw actions at version 0. Users
  /// must be added with consecutive ids starting at 0.
  void AddUser(UserId user, std::vector<ActionKey> actions,
               std::size_t digest_bits = kDefaultDigestBits);

  /// Number of users.
  std::size_t NumUsers() const { return current_.size(); }

  /// Current snapshot of a user's profile.
  const ProfilePtr& Get(UserId user) const { return current_[user]; }

  /// Current version number of a user's profile.
  std::uint32_t CurrentVersion(UserId user) const {
    return current_[user]->version();
  }

  /// Publishes a new snapshot for `user` containing her previous actions
  /// plus `new_actions`, built with the previous snapshot's digest size;
  /// bumps the version, even for an empty batch. Returns the new snapshot.
  ProfilePtr ApplyUpdate(UserId user, const std::vector<ActionKey>& new_actions);

  /// Replaces every user's current snapshot (checkpoint restore). The
  /// vector must hold one non-null snapshot per existing user, owners in
  /// id order.
  void RestoreSnapshots(std::vector<ProfilePtr> snapshots);

  /// When enabled, the store copies a user's version-0 actions aside before
  /// her first update, so OriginalActionsOf stays valid without a
  /// materialized Dataset. Streaming scenario runs turn this on.
  void RetainOriginals(bool retain) { retain_originals_ = retain; }

  /// The user's original (version-0) actions. Requires RetainOriginals or
  /// an un-updated user.
  std::span<const ActionKey> OriginalActionsOf(UserId user) const;

  /// The owner's current snapshot when it has exactly this version and
  /// action set, else null — the checkpoint codec's dedup path. Counts a
  /// hit or miss. Not for use while snapshots are being published.
  ProfilePtr PoolFind(UserId owner, std::uint32_t version,
                      std::span<const ActionKey> actions) const;

  /// Arena of `user`'s shard, for building snapshots that will be
  /// published into this store (checkpoint restore).
  const std::shared_ptr<SlabArena>& ArenaOf(UserId user) const {
    return arenas_[user % kArenaShards];
  }

  ProfileStoreMemoryStats MemoryStats() const;

 private:
  std::vector<ProfilePtr> current_;
  std::vector<std::shared_ptr<SlabArena>> arenas_;

  /// Original version-0 actions of updated users (streaming mode only).
  bool retain_originals_ = false;
  std::unordered_map<UserId, std::vector<ActionKey>> originals_;

  mutable std::uint64_t pool_hits_ = 0;
  mutable std::uint64_t pool_misses_ = 0;
};

}  // namespace p3q

#endif  // P3Q_PROFILE_PROFILE_STORE_H_
