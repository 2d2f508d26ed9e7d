// The probe memo of one node: the last digest version of every user whose
// digest triggered a random-view probe (P3QNode::ShouldProbe).
//
// A slot costs 5 bytes: the user in a UserTable's id array and her version
// in its parallel byte array, saturated at kSpilled (255). The exact
// version of a saturated entry lives in a side UserMap, allocated the first
// time a version reaches 255. Versions count a user's profile updates, so a
// static workload probes nothing but version 0 and an update workload
// rarely passes a few dozen: the side map stays unallocated in practice,
// and it keeps every answer exact when it is not.
#ifndef P3Q_CORE_PROBE_MEMO_H_
#define P3Q_CORE_PROBE_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.h"
#include "common/user_map.h"

namespace p3q {

class ProbeMemo {
 public:
  /// True when `version` is newer than the version of `user` on record (or
  /// she has none), recording it. Older and equal versions answer false.
  bool ShouldProbe(UserId user, std::uint32_t version);

  /// Records `version` for `user`, overwriting any version on record.
  void Set(UserId user, std::uint32_t version);

  /// Empties the memo, keeping its table and dropping the side map.
  void Clear();

  std::size_t size() const { return versions_.size(); }

  /// Table slots, 5 bytes each.
  std::size_t slot_count() const { return versions_.slot_count(); }

  /// Bytes of the table and of the side map, if any.
  std::size_t MemoryBytes() const {
    return versions_.MemoryBytes() + (spill_ ? spill_->MemoryBytes() : 0);
  }

  /// Every (user, version) pair, ascending by user.
  std::vector<std::pair<UserId, std::uint32_t>> Sorted() const;

 private:
  /// The byte version of an entry whose exact version is in spill_.
  static constexpr std::uint8_t kSpilled = 0xff;

  static std::uint8_t Narrow(std::uint32_t version) {
    return version < kSpilled ? static_cast<std::uint8_t>(version) : kSpilled;
  }

  /// Records `version` (at least kSpilled) as `user`'s exact version.
  void Spill(UserId user, std::uint32_t version);

  UserTable<std::uint8_t> versions_;  // min(version, kSpilled)
  std::unique_ptr<UserMap> spill_;    // exact versions of kSpilled entries
};

}  // namespace p3q

#endif  // P3Q_CORE_PROBE_MEMO_H_
