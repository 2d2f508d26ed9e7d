#include "common/user_map.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace p3q {

std::pair<std::uint32_t*, bool> UserMap::Emplace(UserId user,
                                                 std::uint32_t value) {
  assert(user != kInvalidUser);
  std::size_t i = 0;
  if (!slots_.empty()) {
    i = Probe(user);
    if (slots_[i].user == user) return {&slots_[i].value, false};
  }
  if ((size_ + 1) * 2 > slots_.size()) {
    Grow();
    i = Probe(user);
  }
  slots_[i] = Slot{user, value};
  ++size_;
  return {&slots_[i].value, true};
}

void UserMap::Erase(UserId user) {
  if (slots_.empty()) return;
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = Probe(user);
  if (slots_[hole].user != user) return;
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

void UserMap::Clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

std::vector<std::pair<UserId, std::uint32_t>> UserMap::Sorted() const {
  std::vector<std::pair<UserId, std::uint32_t>> out;
  out.reserve(size_);
  for (const Slot& slot : slots_) {
    if (slot.user != kInvalidUser) out.emplace_back(slot.user, slot.value);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void UserMap::Grow() {
  std::vector<Slot> old = std::move(slots_);
  const std::size_t capacity = old.empty() ? 16 : old.size() * 2;
  slots_.assign(capacity, Slot{});
  shift_ = 64 - std::countr_zero(capacity);
  for (const Slot& slot : old) {
    if (slot.user != kInvalidUser) slots_[Probe(slot.user)] = slot;
  }
}

}  // namespace p3q
