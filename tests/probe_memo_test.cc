// The probe memo (P3QNode::ShouldProbe over core/probe_memo.h) against the
// std::unordered_map it replaced, versions past a byte included, and the
// Robin Hood UserMap against std::unordered_map and against the
// linear-probing map it replaced (tests/linear_user_map.h). Equal answers
// mean equal rng draws downstream, which is what keeps the lazy protocol
// byte-identical.
#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/user_map.h"
#include "core/p3q_node.h"
#include "linear_user_map.h"
#include "test_util.h"

namespace p3q {
namespace {

using Memo = std::unordered_map<UserId, std::uint32_t>;
using Pairs = std::vector<std::pair<UserId, std::uint32_t>>;

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

Pairs SortedDump(const Memo& memo) {
  Pairs out(memo.begin(), memo.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::uint32_t MaxVersion(const Memo& memo) {
  std::uint32_t max = 0;
  for (const auto& [user, version] : memo) max = std::max(max, version);
  return max;
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
/// memos and expects equal answers. A fresh user is offered a version below
/// `fresh_versions`; a known user her recorded version minus one, plus zero
/// or plus one, so older, equal and newer offers all occur.
void RunStream(P3QNode* node, Memo* reference, UserId universe, int ops,
               Rng* rng, Offers* offers,
               std::uint64_t fresh_versions = 8) {
  for (int op = 0; op < ops; ++op) {
    const UserId user = 1 + static_cast<UserId>(rng->NextUint64(universe));
    std::uint32_t version =
        static_cast<std::uint32_t>(rng->NextUint64(fresh_versions));
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

/// A power-of-two table at most 7/8 full, 5 bytes a slot while no version
/// reaches a byte's 255, more once the side map holds one.
void ExpectMemoLayout(const ProbeMemo& memo, const Memo& reference) {
  ASSERT_EQ(memo.size(), reference.size());
  EXPECT_EQ(memo.slot_count() & (memo.slot_count() - 1), 0u);
  EXPECT_LE(memo.size() * 8, memo.slot_count() * 7);
  if (MaxVersion(reference) < 255) {
    EXPECT_EQ(memo.MemoryBytes(), memo.slot_count() * 5);
  } else {
    EXPECT_GT(memo.MemoryBytes(), memo.slot_count() * 5);
  }
}

TEST(ProbeMemoTest, AnswersLikeAnUnorderedMap) {
  Offers offers;
  // A handful of users (every offer revisits, so versions climb past a
  // byte), a few hundred, and enough to grow the table past 16k slots.
  for (const UserId universe : {5u, 300u, 20000u}) {
    SCOPED_TRACE("universe " + std::to_string(universe));
    P3QNode node = MakeNode();
    Memo reference;
    Rng rng(universe);
    RunStream(&node, &reference, universe, 30000, &rng, &offers);
    if (HasFatalFailure()) return;

    const ProbeMemo& memo = node.probed_versions();
    ExpectMemoLayout(memo, reference);
    if (universe == 5u) {
      EXPECT_GE(MaxVersion(reference), 255u);
    } else {
      EXPECT_LT(MaxVersion(reference), 255u);
    }
    if (universe == 20000u) {
      EXPECT_GE(memo.slot_count(), 16384u);
    }

    // Round trip through the sorted dump, as a checkpoint does, then keep
    // going on the restored memo.
    const Pairs dump = memo.Sorted();
    ASSERT_EQ(dump, SortedDump(reference));
    P3QNode restored = MakeNode();
    restored.probed_versions().Set(universe + 7, 99);   // cleared below
    restored.probed_versions().Set(universe + 8, 999);  // spills; cleared
    restored.probed_versions().Clear();
    for (const auto& [user, version] : dump) {
      restored.probed_versions().Set(user, version);
    }
    ASSERT_EQ(restored.probed_versions().Sorted(), dump);
    ExpectMemoLayout(restored.probed_versions(), reference);
    RunStream(&restored, &reference, universe, 5000, &rng, &offers);
    if (HasFatalFailure()) return;
    EXPECT_EQ(restored.probed_versions().Sorted(), SortedDump(reference));
  }
  EXPECT_GT(offers.fresh, 0);
  EXPECT_GT(offers.older, 0);
  EXPECT_GT(offers.equal, 0);
  EXPECT_GT(offers.newer, 0);
}

TEST(ProbeMemoTest, VersionsPastAByteSpillExactly) {
  // Fresh versions spread over [0, 600), so entries start on both sides of
  // the byte's 255 and step across it; a few huge ones reach the top of
  // the 32-bit range.
  P3QNode node = MakeNode();
  Memo reference;
  Rng rng(255);
  Offers offers;
  RunStream(&node, &reference, 400, 20000, &rng, &offers,
            /*fresh_versions=*/600);
  ASSERT_FALSE(HasFatalFailure());
  for (const std::uint32_t version :
       {254u, 255u, 256u, 0xfffffffeu, 0xffffffffu}) {
    const UserId user = 1000 + version % 97;
    for (const std::uint32_t offer : {version, version - 1, version}) {
      ASSERT_EQ(node.ShouldProbe(user, offer),
                ReferenceShouldProbe(&reference, user, offer))
          << "user " << user << " version " << offer;
    }
  }
  ExpectMemoLayout(node.probed_versions(), reference);
  const Pairs dump = node.probed_versions().Sorted();
  ASSERT_EQ(dump, SortedDump(reference));

  // Set overwrites in both directions: a spilled version back below 255,
  // and a byte version past it.
  ProbeMemo memo;
  memo.Set(7, 300);
  memo.Set(8, 3);
  memo.Set(7, 4);
  memo.Set(8, 256);
  EXPECT_EQ(memo.Sorted(), (Pairs{{7, 4}, {8, 256}}));
  EXPECT_FALSE(memo.ShouldProbe(7, 4));
  EXPECT_TRUE(memo.ShouldProbe(7, 255));
  EXPECT_FALSE(memo.ShouldProbe(8, 255));
  EXPECT_FALSE(memo.ShouldProbe(8, 256));
  EXPECT_TRUE(memo.ShouldProbe(8, 257));
  EXPECT_EQ(memo.Sorted(), (Pairs{{7, 255}, {8, 257}}));
  EXPECT_GT(memo.MemoryBytes(), memo.slot_count() * 5);
  memo.Clear();
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(memo.MemoryBytes(), memo.slot_count() * 5);
  EXPECT_TRUE(memo.ShouldProbe(7, 0));
}

TEST(UserMapTest, InvalidUserIsNeverFound) {
  // kInvalidUser marks an empty slot; a lookup for it must not match one.
  UserMap map;
  EXPECT_EQ(map.Find(kInvalidUser), UserMap::kAbsent);
  map.Set(5, 0);
  EXPECT_EQ(map.Find(kInvalidUser), UserMap::kAbsent);
  EXPECT_EQ(map.Find(5), 0u);
  map.Erase(kInvalidUser);
  EXPECT_EQ(map.size(), 1u);
  map.Erase(5);
  EXPECT_EQ(map.Find(kInvalidUser), UserMap::kAbsent);

  PersonalNetwork network(/*self=*/0, /*s=*/4, /*c=*/2);
  network.Consider(5, 3, test::MakeDisjointDigest(5), nullptr);
  ASSERT_TRUE(network.Contains(5));
  EXPECT_FALSE(network.Contains(kInvalidUser));
  EXPECT_EQ(network.Find(kInvalidUser), nullptr);
  EXPECT_EQ(network.KnownVersion(kInvalidUser), PersonalNetwork::kNoVersion);
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

// ---------------------------------------------------------------------------
// Differential streams against the linear-probing map.
// ---------------------------------------------------------------------------

/// `n` distinct user ids of one shape: dense (0..n-1), clustered (runs of
/// 32 consecutive ids at random bases), or colliding (ids whose Fibonacci
/// hash has one of the 4 largest 10-bit prefixes, so up to 1024 slots they
/// pile onto the last 4 home slots, and past it onto the last 1/256 of the
/// table: one probe run as long as the map, wrapping past the table's end).
enum class IdShape { kDense, kClustered, kColliding };

std::vector<UserId> MakeIds(IdShape shape, std::size_t n, Rng* rng) {
  std::vector<UserId> ids;
  std::unordered_set<UserId> seen;
  const auto add = [&](UserId id) {
    if (ids.size() < n && seen.insert(id).second) ids.push_back(id);
  };
  while (ids.size() < n) {
    switch (shape) {
      case IdShape::kDense:
        add(static_cast<UserId>(ids.size()));
        break;
      case IdShape::kClustered: {
        const UserId base =
            static_cast<UserId>(rng->NextUint64(0xfffff000u)) & ~31u;
        for (UserId k = 0; k < 32; ++k) add(base + k);
        break;
      }
      case IdShape::kColliding: {
        const UserId id = static_cast<UserId>(rng->NextUint64(0xfffffffeu));
        if (((static_cast<std::uint64_t>(id) * 0x9e3779b97f4a7c15ull) >> 54) >=
            1020) {
          add(id);
        }
        break;
      }
    }
  }
  // Shuffle so insertion order is not id order.
  for (std::size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng->NextUint64(i)]);
  }
  return ids;
}

/// UserMap and the oracle side by side; every call checks equal answers.
struct Pair {
  UserMap map;
  test::LinearUserMap oracle;

  void Find(UserId user) {
    ASSERT_EQ(map.Find(user), oracle.Find(user)) << "find user " << user;
  }
  void Emplace(UserId user, std::uint32_t value) {
    const auto got = map.Emplace(user, value);
    const auto want = oracle.Emplace(user, value);
    ASSERT_EQ(got.second, want.second) << "emplace user " << user;
    ASSERT_EQ(*got.first, *want.first) << "emplace user " << user;
  }
  void Set(UserId user, std::uint32_t value) {
    map.Set(user, value);
    oracle.Set(user, value);
  }
  void Erase(UserId user) {
    map.Erase(user);
    oracle.Erase(user);
  }
  void Check() {
    ASSERT_EQ(map.size(), oracle.size());
    ASSERT_EQ(map.Sorted(), oracle.Sorted());
    ASSERT_EQ(map.slot_count() & (map.slot_count() - 1), 0u);
    ASSERT_LE(map.size() * 8, map.slot_count() * 7);
    ASSERT_EQ(map.MemoryBytes(), map.slot_count() * 8);
  }
};

/// The most entries `slots` slots hold before the table doubles.
std::size_t MaxLoad(std::size_t slots) { return slots * 7 / 8; }

TEST(UserMapOracleTest, MatchesLinearProbingAcrossEveryGrowthStep) {
  for (const IdShape shape :
       {IdShape::kDense, IdShape::kClustered, IdShape::kColliding}) {
    SCOPED_TRACE("shape " + std::to_string(static_cast<int>(shape)));
    Rng rng(0x7573 + static_cast<std::uint64_t>(shape));
    // Colliding ids make every lookup walk the one run, so fewer of them.
    const std::size_t n = shape == IdShape::kColliding ? 900 : 9000;
    const std::size_t fill = n * 4 / 9;
    std::size_t grown = 16;
    while (MaxLoad(grown) < fill) grown *= 2;
    const std::vector<UserId> ids = MakeIds(shape, n, &rng);
    Pair pair;
    // Fill: every growth step from 16 slots to `grown` (8192, or 512 for
    // colliding ids). The table doubles exactly when an insertion would
    // pass 7/8 of it.
    for (std::size_t k = 0; k < fill; ++k) {
      const std::size_t before = pair.map.slot_count();
      if (k % 2 == 0) {
        pair.Emplace(ids[k], static_cast<std::uint32_t>(k));
      } else {
        pair.Set(ids[k], static_cast<std::uint32_t>(k));
      }
      if (pair.map.slot_count() != before) {
        EXPECT_EQ(k, before == 0 ? 0 : MaxLoad(before)) << "grew at " << k;
        EXPECT_EQ(pair.map.slot_count(), before == 0 ? 16 : 2 * before);
      }
      // A hit on the newcomer and on an earlier id, a miss on a later one.
      pair.Find(ids[k]);
      pair.Find(ids[rng.NextUint64(k + 1)]);
      pair.Find(ids[k + 1]);
      if (HasFatalFailure()) return;
    }
    ASSERT_EQ(pair.map.slot_count(), grown);
    pair.Check();
    if (HasFatalFailure()) return;

    // Fill the grown table to exactly its maximum load, then churn there:
    // each erase frees a slot the next insert takes, so the table never
    // grows and its probe runs stay as long as they get.
    const std::size_t full = MaxLoad(pair.map.slot_count());
    for (std::size_t k = fill; k < full; ++k) {
      pair.Set(ids[k], ids[k] ^ 0x55u);
    }
    ASSERT_EQ(pair.map.size(), full);
    ASSERT_EQ(pair.map.slot_count(), grown);
    std::vector<UserId> in(ids.begin(), ids.begin() + full);
    std::vector<UserId> out(ids.begin() + full, ids.end());
    for (int op = 0; op < 20000; ++op) {
      const std::size_t i = rng.NextUint64(in.size());
      const std::size_t o = rng.NextUint64(out.size());
      pair.Erase(in[i]);
      pair.Find(in[i]);
      pair.Emplace(out[o], static_cast<std::uint32_t>(op));
      pair.Find(out[o]);
      std::swap(in[i], out[o]);
      pair.Find(in[rng.NextUint64(in.size())]);
      pair.Find(out[rng.NextUint64(out.size())]);
      if (HasFatalFailure()) return;
    }
    EXPECT_EQ(pair.map.size(), full);
    EXPECT_EQ(pair.map.slot_count(), grown);
    pair.Check();
    if (HasFatalFailure()) return;

    // Mixed operations over held and erased ids, with a Clear now and then.
    for (int op = 0; op < 30000; ++op) {
      const UserId user = ids[rng.NextUint64(ids.size())];
      const std::uint64_t pick = rng.NextUint64(1000);
      if (pick < 350) {
        pair.Set(user, static_cast<std::uint32_t>(rng.NextUint64(1000)));
      } else if (pick < 500) {
        pair.Emplace(user, static_cast<std::uint32_t>(op));
      } else if (pick < 800) {
        pair.Erase(user);
      } else if (pick == 999) {
        pair.map.Clear();
        pair.oracle.Clear();
      }
      pair.Find(user);
      if (op % 1000 == 0) pair.Check();
      if (HasFatalFailure()) return;
    }
    pair.Check();
  }
}

}  // namespace
}  // namespace p3q
