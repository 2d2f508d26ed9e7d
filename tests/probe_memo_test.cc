// The probe memo (P3QNode::ShouldProbe over a flat UserMap) against the
// std::unordered_map it replaced, and UserMap itself against
// std::unordered_map under insert/erase streams. Equal answers mean equal
// rng draws downstream, which is what keeps the lazy protocol
// byte-identical.
#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/user_map.h"
#include "core/p3q_node.h"
#include "test_util.h"

namespace p3q {
namespace {

using Memo = std::unordered_map<UserId, std::uint32_t>;

/// The memo as it was: one std::unordered_map per node.
bool ReferenceShouldProbe(Memo* memo, UserId user, std::uint32_t version) {
  auto [it, inserted] = memo->emplace(user, version);
  if (inserted) return true;
  if (version > it->second) {
    it->second = version;
    return true;
  }
  return false;
}

std::vector<std::pair<UserId, std::uint32_t>> SortedDump(const Memo& memo) {
  std::vector<std::pair<UserId, std::uint32_t>> out(memo.begin(), memo.end());
  std::sort(out.begin(), out.end());
  return out;
}

P3QNode MakeNode() {
  return P3QNode(/*self=*/0, test::MakeDisjointSnapshot(0, 4),
                 test::SmallConfig(), /*storage_capacity=*/5, Rng(1));
}

/// What the offers of a stream were, relative to the version on record.
struct Offers {
  int fresh = 0;
  int older = 0;
  int equal = 0;
  int newer = 0;
};

/// Offers `ops` random (user, version) pairs from `universe` users to both
/// memos and expects equal answers. A known user is offered her recorded
/// version minus one, plus zero or plus one, so older, equal and newer
/// offers all occur.
void RunStream(P3QNode* node, Memo* reference, UserId universe, int ops,
               Rng* rng, Offers* offers) {
  for (int op = 0; op < ops; ++op) {
    const UserId user = 1 + static_cast<UserId>(rng->NextUint64(universe));
    std::uint32_t version = static_cast<std::uint32_t>(rng->NextUint64(8));
    if (const auto known = reference->find(user); known != reference->end()) {
      const std::uint64_t step = rng->NextUint64(3);
      if (step == 0 && known->second > 0) {
        version = known->second - 1;
        ++offers->older;
      } else if (step == 2) {
        version = known->second + 1;
        ++offers->newer;
      } else {
        version = known->second;
        ++offers->equal;
      }
    } else {
      ++offers->fresh;
    }
    ASSERT_EQ(node->ShouldProbe(user, version),
              ReferenceShouldProbe(reference, user, version))
        << "op " << op << ": user " << user << " version " << version;
  }
}

TEST(ProbeMemoTest, AnswersLikeAnUnorderedMap) {
  Offers offers;
  // A handful of users (every offer revisits), a few hundred, and enough
  // to grow the table past 16k slots.
  for (const UserId universe : {5u, 300u, 20000u}) {
    SCOPED_TRACE("universe " + std::to_string(universe));
    P3QNode node = MakeNode();
    Memo reference;
    Rng rng(universe);
    RunStream(&node, &reference, universe, 30000, &rng, &offers);
    if (HasFatalFailure()) return;

    const UserMap& memo = node.probed_versions();
    ASSERT_EQ(memo.size(), reference.size());
    // A power-of-two table, at most half full, 8 bytes a slot.
    EXPECT_EQ(memo.slot_count() & (memo.slot_count() - 1), 0u);
    EXPECT_LE(memo.size() * 2, memo.slot_count());
    EXPECT_EQ(memo.MemoryBytes(), memo.slot_count() * 8);
    if (universe == 20000u) {
      EXPECT_GE(memo.slot_count(), 16384u);
    }

    // Round trip through the sorted dump, as a checkpoint does, then keep
    // going on the restored memo.
    const std::vector<std::pair<UserId, std::uint32_t>> dump = memo.Sorted();
    ASSERT_EQ(dump, SortedDump(reference));
    P3QNode restored = MakeNode();
    restored.probed_versions().Set(universe + 7, 99);  // cleared below
    restored.probed_versions().Clear();
    for (const auto& [user, version] : dump) {
      restored.probed_versions().Set(user, version);
    }
    ASSERT_EQ(restored.probed_versions().Sorted(), dump);
    RunStream(&restored, &reference, universe, 5000, &rng, &offers);
    if (HasFatalFailure()) return;
    EXPECT_EQ(restored.probed_versions().Sorted(), SortedDump(reference));
  }
  EXPECT_GT(offers.fresh, 0);
  EXPECT_GT(offers.older, 0);
  EXPECT_GT(offers.equal, 0);
  EXPECT_GT(offers.newer, 0);
}

TEST(UserMapTest, MatchesUnorderedMapUnderInsertEraseStreams) {
  for (const UserId universe : {3u, 64u, 5000u}) {
    SCOPED_TRACE("universe " + std::to_string(universe));
    UserMap map;
    Memo reference;
    Rng rng(universe + 1);
    for (int op = 0; op < 40000; ++op) {
      const UserId user = static_cast<UserId>(rng.NextUint64(universe));
      const std::uint64_t pick = rng.NextUint64(10);
      if (pick < 5) {
        const std::uint32_t value =
            static_cast<std::uint32_t>(rng.NextUint64(1000));
        map.Set(user, value);
        reference[user] = value;
      } else if (pick < 8) {
        map.Erase(user);
        reference.erase(user);
      }
      const auto it = reference.find(user);
      ASSERT_EQ(map.Find(user),
                it == reference.end() ? UserMap::kAbsent : it->second)
          << "op " << op;
      ASSERT_EQ(map.size(), reference.size()) << "op " << op;
    }
    EXPECT_EQ(map.Sorted(), SortedDump(reference));
    map.Clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_TRUE(map.Sorted().empty());
  }
}

}  // namespace
}  // namespace p3q
