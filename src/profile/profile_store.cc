#include "profile/profile_store.h"

#include <algorithm>
#include <cassert>

namespace p3q {

ProfileStore::ProfileStore() {
  arenas_.reserve(kArenaShards);
  for (std::size_t s = 0; s < kArenaShards; ++s) {
    arenas_.push_back(std::make_shared<SlabArena>());
  }
}

void ProfileStore::AddUser(UserId user, std::vector<ActionKey> actions,
                           std::size_t digest_bits) {
  assert(user == current_.size() && "users must be added in id order");
  (void)user;
  const UserId id = static_cast<UserId>(current_.size());
  current_.push_back(std::make_shared<Profile>(id, std::move(actions), 0,
                                               digest_bits, ArenaOf(id)));
}

ProfilePtr ProfileStore::ApplyUpdate(UserId user,
                                     const std::vector<ActionKey>& new_actions) {
  const ProfilePtr& old = current_[user];
  if (retain_originals_ && old->version() == 0) {
    originals_.emplace(user, std::vector<ActionKey>(old->actions().begin(),
                                                    old->actions().end()));
  }
  // The constructor's sort + unique turns the concatenation into the union.
  std::vector<ActionKey> actions;
  actions.reserve(old->Length() + new_actions.size());
  actions.assign(old->actions().begin(), old->actions().end());
  actions.insert(actions.end(), new_actions.begin(), new_actions.end());
  current_[user] = std::make_shared<Profile>(
      user, std::move(actions), old->version() + 1, old->DigestBytes() * 8,
      ArenaOf(user));
  return current_[user];
}

void ProfileStore::RestoreSnapshots(std::vector<ProfilePtr> snapshots) {
  assert(snapshots.size() == current_.size() &&
         "restore must cover exactly the existing users");
  if (retain_originals_) {
    // A restore may replace a version-0 snapshot with an updated one; keep
    // the original actions reachable (streaming runs read them for workload
    // generation, and a freshly built store is the only place they exist).
    for (std::size_t u = 0; u < snapshots.size(); ++u) {
      if (current_[u]->version() == 0 && snapshots[u]->version() != 0) {
        originals_.emplace(
            static_cast<UserId>(u),
            std::vector<ActionKey>(current_[u]->actions().begin(),
                                   current_[u]->actions().end()));
      }
    }
  }
  current_ = std::move(snapshots);
}

std::span<const ActionKey> ProfileStore::OriginalActionsOf(UserId user) const {
  const auto it = originals_.find(user);
  if (it != originals_.end()) return it->second;
  assert(current_[user]->version() == 0 &&
         "original actions of an updated user require RetainOriginals");
  return current_[user]->actions();
}

ProfilePtr ProfileStore::PoolFind(UserId owner, std::uint32_t version,
                                  std::span<const ActionKey> actions) const {
  const ProfilePtr& live = current_[owner];
  const std::span<const ActionKey> have = live->actions();
  if (live->version() == version && have.size() == actions.size() &&
      std::equal(have.begin(), have.end(), actions.begin())) {
    ++pool_hits_;
    return live;
  }
  ++pool_misses_;
  return nullptr;
}

ProfileStoreMemoryStats ProfileStore::MemoryStats() const {
  ProfileStoreMemoryStats stats;
  for (const auto& arena : arenas_) stats.arena += arena->Stats();
  stats.pool_hits = pool_hits_;
  stats.pool_misses = pool_misses_;
  return stats;
}

}  // namespace p3q
