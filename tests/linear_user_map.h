// The linear-probing user map that common/user_map.h's Robin Hood table
// replaced, kept as a reference: 8-byte (user, value) slots in a
// power-of-two table grown once it would pass half full, kInvalidUser
// marking an empty slot, probes that stop only at the user or an empty
// slot, and backward-shift erase. Differential tests run it beside
// UserMap, and bench_micro_usermap times the two.
//
// One known fault is kept, since the oracle records what the old map did:
// on a non-empty table Find(kInvalidUser) stops at the first empty slot,
// whose user field matches, and answers that slot's value instead of
// kAbsent. Differential streams never look up kInvalidUser.
#ifndef P3Q_TESTS_LINEAR_USER_MAP_H_
#define P3Q_TESTS_LINEAR_USER_MAP_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"

namespace p3q::test {

class LinearUserMap {
 public:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  std::uint32_t Find(UserId user) const {
    if (slots_.empty()) return kAbsent;
    const Slot& slot = slots_[Probe(user)];
    return slot.user == user ? slot.value : kAbsent;
  }

  std::pair<std::uint32_t*, bool> Emplace(UserId user, std::uint32_t value) {
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

  void Set(UserId user, std::uint32_t value) {
    *Emplace(user, value).first = value;
  }

  void Erase(UserId user) {
    if (slots_.empty()) return;
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = Probe(user);
    if (slots_[hole].user != user) return;
    // Pull each later slot of the probe run into the hole unless its home
    // lies cyclically in (hole, j].
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

  void Clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  std::size_t slot_count() const { return slots_.size(); }
  std::size_t MemoryBytes() const { return slots_.size() * sizeof(Slot); }

  std::vector<std::pair<UserId, std::uint32_t>> Sorted() const {
    std::vector<std::pair<UserId, std::uint32_t>> out;
    out.reserve(size_);
    for (const Slot& slot : slots_) {
      if (slot.user != kInvalidUser) out.emplace_back(slot.user, slot.value);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  struct Slot {
    UserId user = kInvalidUser;
    std::uint32_t value = 0;
  };

  std::size_t Home(UserId user) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(user) * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  std::size_t Probe(UserId user) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Home(user);
    while (slots_[i].user != user && slots_[i].user != kInvalidUser) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t capacity = old.empty() ? 16 : old.size() * 2;
    slots_.assign(capacity, Slot{});
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& slot : old) {
      if (slot.user != kInvalidUser) slots_[Probe(slot.user)] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;
};

}  // namespace p3q::test

#endif  // P3Q_TESTS_LINEAR_USER_MAP_H_
