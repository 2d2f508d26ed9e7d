#include "core/personal_network.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace p3q {
namespace {

/// Makes room for one more element in `v`, which never holds more than
/// `cap`: the capacity starts at 16, doubles, and stops at `cap`, so a
/// network that never fills never pays for all of its capacity, and one
/// that fills reallocates a handful of times, not once per power of two.
template <typename T>
void GrowForOneMore(std::vector<T>* v, std::size_t cap) {
  if (v->size() == v->capacity()) {
    v->reserve(std::min(std::max<std::size_t>(2 * v->capacity(), 16), cap));
  }
}

}  // namespace

PersonalNetwork::PersonalNetwork(UserId self, int s, int c)
    : self_(self), s_(s), c_(c) {}

const NetworkEntry* PersonalNetwork::Find(UserId user) const {
  const std::uint32_t slot = index_.Find(user);
  return slot == UserMap::kAbsent ? nullptr : &slots_[slot];
}

std::size_t PersonalNetwork::RankOf(std::uint32_t score, UserId user) const {
  const Key probe{score, user, 0};
  const auto it =
      std::lower_bound(keys_.begin(), keys_.end(), probe, Key::Before);
  assert(it != keys_.end() && it->user == user);
  return static_cast<std::size_t>(it - keys_.begin());
}

void PersonalNetwork::StoreReplica(NetworkEntry& entry, ProfilePtr replica) {
  if (!entry.HasStoredProfile()) {
    if (free_replicas_.empty()) {
      entry.replica = static_cast<std::uint32_t>(replicas_.size());
      GrowForOneMore(&replicas_, static_cast<std::size_t>(c_));
      replicas_.push_back(std::move(replica));
      return;
    }
    entry.replica = free_replicas_.back();
    free_replicas_.pop_back();
  }
  replicas_[entry.replica] = std::move(replica);
}

void PersonalNetwork::DropReplica(NetworkEntry& entry) {
  if (!entry.HasStoredProfile()) return;
  replicas_[entry.replica].reset();
  GrowForOneMore(&free_replicas_, static_cast<std::size_t>(c_));
  free_replicas_.push_back(entry.replica);
  entry.replica = NetworkEntry::kNoReplica;
}

std::size_t PersonalNetwork::Reposition(std::size_t from) {
  const auto first = keys_.begin();
  const auto moved = first + static_cast<std::ptrdiff_t>(from);
  const Key key = *moved;
  std::size_t to = from;
  if (from > 0 && Key::Before(key, moved[-1])) {
    const auto dest = std::upper_bound(first, moved, key, Key::Before);
    to = static_cast<std::size_t>(dest - first);
    std::move_backward(dest, moved, moved + 1);
    *dest = key;
  } else if (from + 1 < keys_.size() && Key::Before(moved[1], key)) {
    const auto dest =
        std::lower_bound(moved + 1, keys_.end(), key, Key::Before);
    to = static_cast<std::size_t>(dest - first) - 1;
    std::move(moved + 1, dest, moved);
    dest[-1] = key;
  }

  // Exactly the entries ranked in the top-c may hold replicas. The shifted
  // keys each move one rank, so besides the moved entry only the one pushed
  // from rank c-1 to rank c can change side.
  const std::size_t c = static_cast<std::size_t>(c_);
  if (to >= c) {
    DropReplica(slots_[key.slot]);
  } else if (from >= c) {
    DropReplica(slots_[keys_[c].slot]);
  }
  return to;
}

ConsiderOutcome PersonalNetwork::Consider(UserId user, std::uint64_t score,
                                          const DigestInfo& digest,
                                          ProfilePtr replica) {
  if (score > std::numeric_limits<std::uint32_t>::max()) {
    throw std::out_of_range("PersonalNetwork::Consider: score " +
                            std::to_string(score) + " does not fit in 32 bits");
  }
  ConsiderOutcome outcome;
  if (user == self_ || score == 0) return outcome;
  const std::uint32_t score32 = static_cast<std::uint32_t>(score);
  const std::uint32_t version = digest.version();

  const std::uint32_t slot = index_.Find(user);
  if (slot != UserMap::kAbsent) {
    NetworkEntry& entry = slots_[slot];
    // Refresh only when the offered digest is at least as new as ours.
    if (version < entry.digest_version) return outcome;
    ++revision_;
    const ProfilePtr& held = StoredProfileOf(entry);
    const std::uint32_t old_stored_version =
        held != nullptr ? held->version() : kNoVersion;
    const std::size_t rank = RankOf(entry.score, user);
    entry.score = score32;
    entry.digest_version = version;
    keys_[rank].score = score32;
    const std::size_t to = Reposition(rank);
    // A transfer happens iff the entry still ranks in the top-c and the
    // offered replica is strictly newer than what it stored before (or
    // none existed).
    outcome.accepted = true;
    outcome.stored_profile =
        to < static_cast<std::size_t>(c_) && replica != nullptr &&
        (old_stored_version == kNoVersion ||
         replica->version() > old_stored_version);
    if (outcome.stored_profile) StoreReplica(entry, std::move(replica));
    return outcome;
  }

  // New candidate: qualify against the current worst when full, and take
  // over her slot.
  std::uint32_t free_slot;
  if (static_cast<int>(keys_.size()) >= s_) {
    const Key worst = keys_.back();
    if (!Key::Before(Key{score32, user, 0}, worst)) return outcome;
    index_.Erase(worst.user);
    keys_.pop_back();
    free_slot = worst.slot;
    DropReplica(slots_[free_slot]);
  } else if (!free_slots_.empty()) {
    free_slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    free_slot = static_cast<std::uint32_t>(slots_.size());
    GrowForOneMore(&slots_, static_cast<std::size_t>(s_));
    slots_.emplace_back();
  }
  ++revision_;
  NetworkEntry& entry = slots_[free_slot];
  entry.user = user;
  entry.score = score32;
  entry.digest_version = version;
  entry.touched_at = clock_;
  index_.Set(user, free_slot);
  GrowForOneMore(&keys_, static_cast<std::size_t>(s_));
  keys_.push_back(Key{score32, user, free_slot});
  const std::size_t to = Reposition(keys_.size() - 1);
  outcome.accepted = true;
  outcome.stored_profile =
      to < static_cast<std::size_t>(c_) && replica != nullptr;
  if (outcome.stored_profile) StoreReplica(entry, std::move(replica));
  return outcome;
}

std::vector<UserId> PersonalNetwork::EntriesNeedingProfile() const {
  std::vector<UserId> out;
  for (std::size_t i = 0; i < StoredRanks(); ++i) {
    const NetworkEntry& e = slots_[keys_[i].slot];
    if (!e.HasStoredProfile() ||
        replicas_[e.replica]->version() < e.digest_version) {
      out.push_back(e.user);
    }
  }
  return out;
}

UserId PersonalNetwork::OldestNeighbour(const std::vector<UserId>& skip) const {
  // One pass over the slots; free slots hold kInvalidUser. The pick does
  // not depend on the visiting order.
  UserId best = kInvalidUser;
  std::uint32_t best_ts = 0;
  for (const NetworkEntry& e : slots_) {
    if (e.user == kInvalidUser) continue;
    if (std::find(skip.begin(), skip.end(), e.user) != skip.end()) continue;
    const std::uint32_t ts = Timestamp(e);
    if (best == kInvalidUser || ts > best_ts ||
        (ts == best_ts && e.user < best)) {
      best = e.user;
      best_ts = ts;
    }
  }
  return best;
}

void PersonalNetwork::TouchGossiped(UserId user) {
  ++clock_;
  ResetTimestamp(user);
}

void PersonalNetwork::ResetTimestamp(UserId user) {
  const std::uint32_t slot = index_.Find(user);
  if (slot != UserMap::kAbsent) slots_[slot].touched_at = clock_;
}

std::vector<const ProfilePtr*> PersonalNetwork::StoredProfiles() const {
  std::vector<const ProfilePtr*> out;
  out.reserve(StoredRanks());
  for (std::size_t i = 0; i < StoredRanks(); ++i) {
    const NetworkEntry& e = slots_[keys_[i].slot];
    if (e.HasStoredProfile()) out.push_back(&replicas_[e.replica]);
  }
  return out;
}

const ProfilePtr& PersonalNetwork::StoredProfileOf(UserId user) const {
  const NetworkEntry* e = Find(user);
  return e == nullptr ? kNoProfile : StoredProfileOf(*e);
}

std::vector<UserId> PersonalNetwork::Members() const {
  std::vector<UserId> out;
  out.reserve(keys_.size());
  for (const Key& k : keys_) out.push_back(k.user);
  return out;
}

std::vector<UserId> PersonalNetwork::MembersWithoutProfile() const {
  std::vector<UserId> out;
  const std::size_t limit = StoredRanks();
  for (std::size_t i = 0; i < limit; ++i) {
    if (!slots_[keys_[i].slot].HasStoredProfile()) {
      out.push_back(keys_[i].user);
    }
  }
  for (std::size_t i = limit; i < keys_.size(); ++i) {
    out.push_back(keys_[i].user);
  }
  return out;
}

void PersonalNetwork::Remove(UserId user) {
  const std::uint32_t slot = index_.Find(user);
  if (slot == UserMap::kAbsent) return;
  ++revision_;
  // The keys behind move up one rank; the one reaching rank c-1 had no
  // replica and simply joins EntriesNeedingProfile.
  keys_.erase(keys_.begin() +
              static_cast<std::ptrdiff_t>(RankOf(slots_[slot].score, user)));
  index_.Erase(user);
  DropReplica(slots_[slot]);
  slots_[slot] = NetworkEntry{};
  free_slots_.push_back(slot);
}

void PersonalNetwork::RestoreEntries(
    const std::vector<NetworkEntry>& entries, std::vector<ProfilePtr> replicas,
    const std::vector<std::uint32_t>& timestamps) {
  ++revision_;
  clock_ = timestamps.empty()
               ? 0
               : *std::max_element(timestamps.begin(), timestamps.end());
  slots_.assign(entries.begin(), entries.end());
  free_slots_.clear();
  keys_.clear();
  keys_.reserve(slots_.size());
  replicas_.clear();
  free_replicas_.clear();
  index_.Clear();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    NetworkEntry& e = slots_[i];
    e.touched_at = clock_ - (i < timestamps.size() ? timestamps[i] : 0);
    e.replica = NetworkEntry::kNoReplica;
    keys_.push_back(Key{e.score, e.user, static_cast<std::uint32_t>(i)});
    index_.Set(e.user, static_cast<std::uint32_t>(i));
  }
  std::sort(keys_.begin(), keys_.end(), Key::Before);
  for (std::size_t i = 0; i < StoredRanks(); ++i) {
    const std::uint32_t slot = keys_[i].slot;
    if (slot < replicas.size() && replicas[slot] != nullptr) {
      StoreReplica(slots_[slot], std::move(replicas[slot]));
    }
  }
}

std::size_t PersonalNetwork::StoredProfileActions() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < StoredRanks(); ++i) {
    const NetworkEntry& e = slots_[keys_[i].slot];
    if (e.HasStoredProfile()) total += replicas_[e.replica]->Length();
  }
  return total;
}

std::size_t PersonalNetwork::MemoryBytes() const {
  return slots_.capacity() * sizeof(NetworkEntry) +
         keys_.capacity() * sizeof(Key) +
         free_slots_.capacity() * sizeof(std::uint32_t) +
         replicas_.capacity() * sizeof(ProfilePtr) +
         free_replicas_.capacity() * sizeof(std::uint32_t) +
         index_.MemoryBytes();
}

std::string PersonalNetwork::CheckInvariants() const {
  const auto at = [](std::size_t i, const NetworkEntry& e) {
    return "entry " + std::to_string(i) + " (user " + std::to_string(e.user) +
           ")";
  };
  if (keys_.size() > static_cast<std::size_t>(s_)) {
    return std::to_string(keys_.size()) + " entries exceed capacity s=" +
           std::to_string(s_);
  }
  if (index_.size() != keys_.size()) {
    return "index holds " + std::to_string(index_.size()) + " users for " +
           std::to_string(keys_.size()) + " entries";
  }
  if (keys_.size() + free_slots_.size() != slots_.size()) {
    return std::to_string(keys_.size()) + " entries and " +
           std::to_string(free_slots_.size()) + " free slots for " +
           std::to_string(slots_.size()) + " slots";
  }
  for (std::uint32_t slot : free_slots_) {
    if (slot >= slots_.size() || slots_[slot].user != kInvalidUser ||
        slots_[slot].HasStoredProfile()) {
      return "free slot " + std::to_string(slot) + " is not an empty slot";
    }
  }
  // A slot is added only when none is free, so the array never outgrows
  // the c replicas it can hold at once. Each slot is named exactly once:
  // by the entry holding it or, null, by the free list.
  if (replicas_.size() > static_cast<std::size_t>(c_)) {
    return std::to_string(replicas_.size()) +
           " replica slots exceed storage capacity c=" + std::to_string(c_);
  }
  std::vector<bool> named(replicas_.size(), false);
  const auto name_replica = [&](std::uint32_t r, bool live) {
    if (r >= replicas_.size() || named[r] ||
        (replicas_[r] != nullptr) != live) {
      return false;
    }
    named[r] = true;
    return true;
  };
  for (std::uint32_t r : free_replicas_) {
    if (!name_replica(r, /*live=*/false)) {
      return "free replica slot " + std::to_string(r) +
             " is not an unnamed null slot";
    }
  }
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    const Key& k = keys_[i];
    if (k.slot >= slots_.size()) {
      return "entry " + std::to_string(i) + " points past the slots";
    }
    const NetworkEntry& e = slots_[k.slot];
    if (k.user != e.user || k.score != e.score) {
      return at(i, e) + " has a rank key of user " + std::to_string(k.user) +
             " score " + std::to_string(k.score) + " but holds score " +
             std::to_string(e.score);
    }
    if (e.user == self_) return at(i, e) + " is the network's owner";
    if (e.score == 0) return at(i, e) + " has score 0";
    if (i > 0 && !Key::Before(keys_[i - 1], k)) {
      return at(i, e) + " is not after entry " + std::to_string(i - 1) +
             " in (score desc, id asc) order";
    }
    if (index_.Find(e.user) != k.slot) {
      return at(i, e) + " lives in slot " + std::to_string(k.slot) +
             " but is indexed at slot " + std::to_string(index_.Find(e.user));
    }
    if (e.digest_version == kNoVersion) {
      return at(i, e) + " carries no digest version";
    }
    if (!e.HasStoredProfile()) continue;
    if (!name_replica(e.replica, /*live=*/true)) {
      return at(i, e) + " names replica slot " + std::to_string(e.replica) +
             ", which is not its own live slot";
    }
    const Profile& replica = *replicas_[e.replica];
    if (i >= static_cast<std::size_t>(c_)) {
      return at(i, e) + " stores a replica past rank c=" + std::to_string(c_);
    }
    if (replica.owner() != e.user) {
      return at(i, e) + " stores user " + std::to_string(replica.owner()) +
             "'s profile";
    }
    if (replica.version() > e.digest_version) {
      return at(i, e) + " stores replica version " +
             std::to_string(replica.version()) +
             " newer than its digest version " +
             std::to_string(e.digest_version);
    }
  }
  if (std::find(named.begin(), named.end(), false) != named.end()) {
    return "a replica slot is neither held by an entry nor free";
  }
  return {};
}

}  // namespace p3q
