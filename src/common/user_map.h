// A flat map from user id to a 32-bit value.
//
// Linear probing over a power-of-two table of 8-byte (user, value) slots,
// kept at most half full, with kInvalidUser marking an empty slot. Erase
// shifts the rest of a probe run back instead of leaving tombstones. The
// table grows with its contents (16 slots at first), so a sparse map never
// pays for a worst-case capacity. Personal networks index their members'
// entry slots with one, and every node keeps its probe memo (the last
// probed digest version per user) in another.
#ifndef P3Q_COMMON_USER_MAP_H_
#define P3Q_COMMON_USER_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"

namespace p3q {

class UserMap {
 public:
  /// Find's answer for an absent user.
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  /// Value of `user`, or kAbsent.
  std::uint32_t Find(UserId user) const {
    if (slots_.empty()) return kAbsent;
    const Slot& slot = slots_[Probe(user)];
    return slot.user == user ? slot.value : kAbsent;
  }

  /// The value of `user`, inserting `value` first when she is absent; the
  /// bool is true on insertion. The pointer is valid until the next
  /// insertion.
  std::pair<std::uint32_t*, bool> Emplace(UserId user, std::uint32_t value);

  /// Inserts `user` or overwrites her value.
  void Set(UserId user, std::uint32_t value) {
    *Emplace(user, value).first = value;
  }

  void Erase(UserId user);

  /// Empties the map, keeping its table.
  void Clear();

  std::size_t size() const { return size_; }

  /// Table slots (0 or a power of two), 8 bytes each.
  std::size_t slot_count() const { return slots_.size(); }
  std::size_t MemoryBytes() const { return slots_.size() * sizeof(Slot); }

  /// Every (user, value) pair, ascending by user.
  std::vector<std::pair<UserId, std::uint32_t>> Sorted() const;

 private:
  struct Slot {
    UserId user = kInvalidUser;
    std::uint32_t value = 0;
  };
  static_assert(sizeof(Slot) == 8);

  std::size_t Home(UserId user) const {
    // Fibonacci hashing: the top bits of a multiplicative hash spread dense
    // user ids evenly over the table.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(user) * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  /// The slot holding `user`, else the empty slot that ends her probe run.
  /// The table must be non-empty.
  std::size_t Probe(UserId user) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Home(user);
    while (slots_[i].user != user && slots_[i].user != kInvalidUser) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Grow();

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(slots_.size())
};

}  // namespace p3q

#endif  // P3Q_COMMON_USER_MAP_H_
