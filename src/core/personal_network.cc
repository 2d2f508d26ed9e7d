#include "core/personal_network.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace p3q {
namespace {

/// Ordering of the network: higher score first, then lower user id so the
/// order (and thus the stored top-c set) is deterministic. User ids are
/// unique within a network, so this is a strict total order: repositioning
/// one entry lands exactly where a full sort would put it.
bool KeyBefore(std::uint64_t score_a, UserId user_a, std::uint64_t score_b,
               UserId user_b) {
  if (score_a != score_b) return score_a > score_b;
  return user_a < user_b;
}

bool EntryBefore(const NetworkEntry& a, const NetworkEntry& b) {
  return KeyBefore(a.score, a.user, b.score, b.user);
}

}  // namespace

// -- PositionIndex -----------------------------------------------------------

std::size_t PersonalNetwork::PositionIndex::Home(UserId user) const {
  // Fibonacci hashing: the top bits of a multiplicative hash spread dense
  // user ids evenly over the table.
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(user) * 0x9e3779b97f4a7c15ull) >> shift_);
}

std::uint32_t PersonalNetwork::PositionIndex::Find(UserId user) const {
  if (slots_.empty()) return kAbsent;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = Home(user);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.user == kInvalidUser) return kAbsent;
    if (slot.user == user) return slot.pos;
  }
}

void PersonalNetwork::PositionIndex::Set(UserId user, std::uint32_t pos) {
  assert(user != kInvalidUser);
  if ((size_ + 1) * 2 > slots_.size()) Grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = Home(user);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.user == user) {
      slot.pos = pos;
      return;
    }
    if (slot.user == kInvalidUser) {
      slot = Slot{user, pos};
      ++size_;
      return;
    }
  }
}

void PersonalNetwork::PositionIndex::Erase(UserId user) {
  if (slots_.empty()) return;
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = Home(user);
  while (slots_[hole].user != user) {
    if (slots_[hole].user == kInvalidUser) return;
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull each later slot of the probe run into the
  // hole unless its home lies cyclically in (hole, j], so every remaining
  // key stays reachable from its home without tombstones.
  for (std::size_t j = (hole + 1) & mask; slots_[j].user != kInvalidUser;
       j = (j + 1) & mask) {
    const std::size_t home = Home(slots_[j].user);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --size_;
}

void PersonalNetwork::PositionIndex::Clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

void PersonalNetwork::PositionIndex::Grow() {
  std::vector<Slot> old = std::move(slots_);
  const std::size_t capacity = old.empty() ? 16 : old.size() * 2;
  slots_.assign(capacity, Slot{});
  shift_ = 64 - std::countr_zero(capacity);
  size_ = 0;
  for (const Slot& slot : old) {
    if (slot.user != kInvalidUser) Set(slot.user, slot.pos);
  }
}

// -- PersonalNetwork ---------------------------------------------------------

PersonalNetwork::PersonalNetwork(UserId self, int s, int c)
    : self_(self), s_(s), c_(c) {
  entries_.reserve(static_cast<std::size_t>(s));
}

const NetworkEntry* PersonalNetwork::Find(UserId user) const {
  const std::uint32_t pos = index_.Find(user);
  return pos == PositionIndex::kAbsent ? nullptr : &entries_[pos];
}

std::uint32_t PersonalNetwork::KnownVersion(UserId user) const {
  const NetworkEntry* e = Find(user);
  return e == nullptr ? kNoVersion : e->digest.version();
}

std::size_t PersonalNetwork::Reposition(std::size_t from) {
  const auto first = entries_.begin();
  const auto moved = first + static_cast<std::ptrdiff_t>(from);
  std::size_t to = from;
  if (from > 0 && EntryBefore(*moved, moved[-1])) {
    const auto dest = std::upper_bound(first, moved, *moved, EntryBefore);
    to = static_cast<std::size_t>(dest - first);
    std::rotate(dest, moved, moved + 1);
  } else if (from + 1 < entries_.size() && EntryBefore(moved[1], *moved)) {
    const auto dest =
        std::lower_bound(moved + 1, entries_.end(), *moved, EntryBefore);
    to = static_cast<std::size_t>(dest - first) - 1;
    std::rotate(moved, moved + 1, dest);
  }
  for (std::size_t i = std::min(from, to); i <= std::max(from, to); ++i) {
    index_.Set(entries_[i].user, static_cast<std::uint32_t>(i));
  }

  // Exactly the entries ranked in the top-c may hold replicas. The shifted
  // entries each move one rank, so besides the moved entry only the one
  // pushed from rank c-1 to rank c can change side.
  const std::size_t c = static_cast<std::size_t>(c_);
  if (to >= c) {
    entries_[to].stored_profile.reset();
  } else if (from >= c) {
    entries_[c].stored_profile.reset();
  }
  return to;
}

ConsiderOutcome PersonalNetwork::Consider(UserId user, std::uint64_t score,
                                          const DigestInfo& digest,
                                          ProfilePtr replica) {
  ConsiderOutcome outcome;
  if (user == self_ || score == 0) return outcome;

  const std::uint32_t pos = index_.Find(user);
  if (pos != PositionIndex::kAbsent) {
    NetworkEntry& entry = entries_[pos];
    // Refresh only when the offered digest is at least as new as ours.
    if (digest.version() < entry.digest.version()) return outcome;
    const std::uint32_t old_stored_version =
        entry.HasStoredProfile() ? entry.stored_profile->version() : kNoVersion;
    entry.score = score;
    entry.digest = digest;
    if (replica != nullptr &&
        (old_stored_version == kNoVersion ||
         replica->version() > old_stored_version)) {
      entry.stored_profile = std::move(replica);
    }
    const NetworkEntry& now = entries_[Reposition(pos)];
    outcome.accepted = true;
    // A transfer happened iff the entry now stores a replica strictly newer
    // than what it stored before (or one where none existed).
    outcome.stored_profile =
        now.HasStoredProfile() &&
        (old_stored_version == kNoVersion ||
         now.stored_profile->version() > old_stored_version);
    return outcome;
  }

  // New candidate: qualify against the current worst when full.
  if (static_cast<int>(entries_.size()) >= s_) {
    const NetworkEntry& worst = entries_.back();
    if (!KeyBefore(score, user, worst.score, worst.user)) return outcome;
    index_.Erase(worst.user);
    entries_.pop_back();
  }
  NetworkEntry entry;
  entry.user = user;
  entry.score = score;
  entry.digest = digest;
  entry.timestamp = 0;
  entry.stored_profile = std::move(replica);
  entries_.push_back(std::move(entry));
  const NetworkEntry& now = entries_[Reposition(entries_.size() - 1)];
  outcome.accepted = true;
  outcome.stored_profile = now.HasStoredProfile();
  return outcome;
}

std::vector<UserId> PersonalNetwork::EntriesNeedingProfile() const {
  std::vector<UserId> out;
  const std::size_t limit =
      std::min(entries_.size(), static_cast<std::size_t>(c_));
  for (std::size_t i = 0; i < limit; ++i) {
    const NetworkEntry& e = entries_[i];
    if (!e.HasStoredProfile() ||
        e.stored_profile->version() < e.digest.version()) {
      out.push_back(e.user);
    }
  }
  return out;
}

UserId PersonalNetwork::OldestNeighbour(const std::vector<UserId>& skip) const {
  UserId best = kInvalidUser;
  std::uint32_t best_ts = 0;
  for (const NetworkEntry& e : entries_) {
    if (std::find(skip.begin(), skip.end(), e.user) != skip.end()) continue;
    if (best == kInvalidUser || e.timestamp > best_ts ||
        (e.timestamp == best_ts && e.user < best)) {
      best = e.user;
      best_ts = e.timestamp;
    }
  }
  return best;
}

void PersonalNetwork::TouchGossiped(UserId user) {
  for (NetworkEntry& e : entries_) {
    if (e.user == user) {
      e.timestamp = 0;
    } else {
      ++e.timestamp;
    }
  }
}

void PersonalNetwork::ResetTimestamp(UserId user) {
  const std::uint32_t pos = index_.Find(user);
  if (pos != PositionIndex::kAbsent) entries_[pos].timestamp = 0;
}

std::vector<ProfilePtr> PersonalNetwork::StoredProfiles() const {
  std::vector<ProfilePtr> out;
  for (const NetworkEntry& e : entries_) {
    if (e.HasStoredProfile()) out.push_back(e.stored_profile);
  }
  return out;
}

ProfilePtr PersonalNetwork::StoredProfileOf(UserId user) const {
  const NetworkEntry* e = Find(user);
  return e == nullptr ? nullptr : e->stored_profile;
}

std::vector<UserId> PersonalNetwork::Members() const {
  std::vector<UserId> out;
  out.reserve(entries_.size());
  for (const NetworkEntry& e : entries_) out.push_back(e.user);
  return out;
}

std::vector<UserId> PersonalNetwork::MembersWithoutProfile() const {
  std::vector<UserId> out;
  for (const NetworkEntry& e : entries_) {
    if (!e.HasStoredProfile()) out.push_back(e.user);
  }
  return out;
}

void PersonalNetwork::Remove(UserId user) {
  const std::uint32_t pos = index_.Find(user);
  if (pos == PositionIndex::kAbsent) return;
  index_.Erase(user);
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(pos));
  // The entries behind move up one rank; the one reaching rank c-1 had no
  // replica and simply joins EntriesNeedingProfile.
  for (std::size_t i = pos; i < entries_.size(); ++i) {
    index_.Set(entries_[i].user, static_cast<std::uint32_t>(i));
  }
}

void PersonalNetwork::RestoreEntries(std::vector<NetworkEntry> entries) {
  entries_ = std::move(entries);
  std::sort(entries_.begin(), entries_.end(), EntryBefore);
  index_.Clear();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i >= static_cast<std::size_t>(c_)) entries_[i].stored_profile.reset();
    index_.Set(entries_[i].user, static_cast<std::uint32_t>(i));
  }
}

std::size_t PersonalNetwork::StoredProfileActions() const {
  std::size_t total = 0;
  for (const NetworkEntry& e : entries_) {
    if (e.HasStoredProfile()) total += e.stored_profile->Length();
  }
  return total;
}

std::string PersonalNetwork::CheckInvariants() const {
  const auto at = [](std::size_t i, const NetworkEntry& e) {
    return "entry " + std::to_string(i) + " (user " + std::to_string(e.user) +
           ")";
  };
  if (entries_.size() > static_cast<std::size_t>(s_)) {
    return std::to_string(entries_.size()) + " entries exceed capacity s=" +
           std::to_string(s_);
  }
  if (index_.size() != entries_.size()) {
    return "index holds " + std::to_string(index_.size()) + " users for " +
           std::to_string(entries_.size()) + " entries";
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const NetworkEntry& e = entries_[i];
    if (e.user == self_) return at(i, e) + " is the network's owner";
    if (e.score == 0) return at(i, e) + " has score 0";
    if (i > 0 && !EntryBefore(entries_[i - 1], e)) {
      return at(i, e) + " is not after entry " + std::to_string(i - 1) +
             " in (score desc, id asc) order";
    }
    if (index_.Find(e.user) != i) {
      return at(i, e) + " is indexed at position " +
             std::to_string(index_.Find(e.user));
    }
    if (e.digest.snapshot == nullptr || e.digest.user != e.user) {
      return at(i, e) + " carries no digest of its own user";
    }
    if (!e.HasStoredProfile()) continue;
    if (i >= static_cast<std::size_t>(c_)) {
      return at(i, e) + " stores a replica past rank c=" + std::to_string(c_);
    }
    if (e.stored_profile->owner() != e.user) {
      return at(i, e) + " stores user " +
             std::to_string(e.stored_profile->owner()) + "'s profile";
    }
    if (e.stored_profile->version() > e.digest.version()) {
      return at(i, e) + " stores replica version " +
             std::to_string(e.stored_profile->version()) +
             " newer than its digest version " +
             std::to_string(e.digest.version());
    }
  }
  return {};
}

}  // namespace p3q
