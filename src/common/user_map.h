// Flat maps from user id to a small unsigned value.
//
// Robin Hood hashing over a power-of-two table, with kInvalidUser marking
// an empty slot. The users and the values sit in two parallel arrays, so a
// slot costs 4 bytes plus the value's width: 8 for UserMap, 5 for the
// probe memo's byte versions (core/probe_memo.h). A resident's distance
// from its home slot is recomputed from its hash, never stored.
//
// Insertion keeps every probe run ordered by home slot: a newcomer takes
// the first slot whose resident lies closer to its own home, and the rest
// of the run shifts one slot on. A lookup can therefore stop at the first
// resident closer to home than the probe, so a miss costs about as few
// probes as a hit even near full load. Erase shifts the rest of the run
// back instead of leaving tombstones. The table fills to 7/8 before it
// doubles (16 slots at first), so it runs at 7/16 to 7/8 load and a sparse
// map never pays for a worst-case capacity. Only Sorted() exposes the
// contents, so the slot order never reaches an output.
//
// Personal networks index their members' entry slots with a UserMap, and
// every node keeps its probe memo in a UserTable<std::uint8_t>.
#ifndef P3Q_COMMON_USER_MAP_H_
#define P3Q_COMMON_USER_MAP_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/types.h"

namespace p3q {

template <typename Value>
class UserTable {
 public:
  /// Find's answer for an absent user.
  static constexpr Value kAbsent = std::numeric_limits<Value>::max();

  /// Value of `user`, or kAbsent (always for kInvalidUser).
  Value Find(UserId user) const {
    const std::size_t i = Lookup(user);
    return i == kNone ? kAbsent : values_[i];
  }

  /// The value of `user`, inserting `value` first when she is absent; the
  /// bool is true on insertion. The pointer is valid until the next
  /// insertion or erasure.
  std::pair<Value*, bool> Emplace(UserId user, Value value);

  /// Inserts `user` or overwrites her value.
  void Set(UserId user, Value value) { *Emplace(user, value).first = value; }

  void Erase(UserId user);

  /// Empties the map, keeping its table.
  void Clear();

  std::size_t size() const { return size_; }

  /// Table slots (0 or a power of two), 4 + sizeof(Value) bytes each.
  std::size_t slot_count() const { return users_.size(); }
  std::size_t MemoryBytes() const {
    return users_.size() * (sizeof(UserId) + sizeof(Value));
  }

  /// Every (user, value) pair, ascending by user.
  std::vector<std::pair<UserId, Value>> Sorted() const;

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  std::size_t Home(UserId user) const {
    // Fibonacci hashing: the top bits of a multiplicative hash spread dense
    // user ids evenly over the table.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(user) * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  /// The slot holding `user`, or kNone.
  std::size_t Lookup(UserId user) const {
    if (size_ == 0 || user == kInvalidUser) return kNone;
    const UserId* users = users_.data();
    const std::size_t mask = users_.size() - 1;
    std::size_t i = Home(user);
    for (std::size_t dist = 0;; ++dist, i = (i + 1) & mask) {
      const UserId resident = users[i];
      if (resident == user) return i;
      // A resident closer to her home than the probe ends the probe.
      if (resident == kInvalidUser || ((i - Home(resident)) & mask) < dist) {
        return kNone;
      }
    }
  }

  /// The slot holding `user`, else the slot she would be inserted at: the
  /// empty slot or the first resident closer to home that ends her probe.
  /// The table must be non-empty.
  std::size_t Seek(UserId user) const;

  /// Puts (user, value) at slot `i`, shifting the residents from `i` up
  /// to the next empty slot one slot on.
  void ShiftInsert(std::size_t i, UserId user, Value value);

  void Grow();

  std::vector<UserId> users_;  // kInvalidUser marks an empty slot
  std::vector<Value> values_;  // parallel to users_
  std::size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(slot_count())
};

extern template class UserTable<std::uint32_t>;
extern template class UserTable<std::uint8_t>;

/// User -> 32-bit value, 8 bytes a slot.
using UserMap = UserTable<std::uint32_t>;

}  // namespace p3q

#endif  // P3Q_COMMON_USER_MAP_H_
