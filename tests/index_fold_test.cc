// Update-path differential suite.
//
// A snapshot is a pure function of its action set: an update rebuilds the
// next snapshot from the old actions plus the new ones through the one
// Profile constructor (ProfileStore::ApplyUpdate), and the result must be
// exactly the snapshot a from-scratch build of the user's whole action
// history gives — array by array, byte by byte, under every usable SIMD
// lane, including empty batches and batches that only repeat actions the
// user already has. The suite drives random update interleavings against a
// shadow rebuilt-from-scratch profile, and additionally proves the
// checkpoint codec restores arena-backed snapshots byte-identically
// (sharing the store's current snapshot when it is the same one).
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/random.h"
#include "profile/profile.h"
#include "profile/profile_store.h"
#include "profile/score_kernel.h"
#include "profile/score_kernel_simd.h"
#include "sim/checkpoint.h"

#include "gtest/gtest.h"

namespace p3q {
namespace {

std::vector<ActionKey> RandomActions(Rng* rng, int count, int item_universe,
                                     int tag_universe) {
  std::vector<ActionKey> actions;
  actions.reserve(count);
  for (int i = 0; i < count; ++i) {
    actions.push_back(
        MakeAction(static_cast<ItemId>(rng->NextUint64(item_universe)),
                   static_cast<TagId>(rng->NextUint64(tag_universe))));
  }
  return actions;
}

template <typename T>
void ExpectSpanEq(std::span<const T> got, std::span<const T> want,
                  const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what << " length differs";
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " differs at index " << i;
  }
}

/// Every array of the two indexes must be byte-identical — not just
/// kernel-equivalent.
void ExpectIndexIdentical(const ScoreIndex& got, const ScoreIndex& want) {
  ExpectSpanEq(got.items.blocks, want.items.blocks, "items.blocks");
  ExpectSpanEq(got.items.words, want.items.words, "items.words");
  ExpectSpanEq(got.item_rank, want.item_rank, "item_rank");
  ExpectSpanEq(got.item_counts, want.item_counts, "item_counts");
  ExpectSpanEq(got.item_offsets, want.item_offsets, "item_offsets");
  ExpectSpanEq(got.tag_sig_a, want.tag_sig_a, "tag_sig_a");
  ExpectSpanEq(got.tag_sig_b, want.tag_sig_b, "tag_sig_b");
}

void ExpectProfileIdentical(const Profile& got, const Profile& want) {
  ExpectSpanEq(got.actions(), want.actions(), "actions");
  EXPECT_EQ(got.NumItems(), want.NumItems());
  EXPECT_EQ(got.DigestFpp(), want.DigestFpp());
  EXPECT_EQ(got.DigestBytes(), want.DigestBytes());
  ExpectIndexIdentical(got.index(), want.index());
}

// ---------------------------------------------------------------------------
// Lane-parameterized: updated snapshots must be bit-identical to rebuilt
// ones AND score identically through the kernels under every usable lane.
// ---------------------------------------------------------------------------

class IndexFoldLaneTest : public ::testing::TestWithParam<SimdLane> {
 protected:
  void SetUp() override { previous_ = SetSimdLane(GetParam()); }
  void TearDown() override { SetSimdLane(previous_); }

 private:
  SimdLane previous_ = SimdLane::kScalar;
};

TEST_P(IndexFoldLaneTest, InterleavedStoreOpsStayBitIdenticalToRebuild) {
  constexpr int kUsers = 12;
  constexpr std::size_t kDigestBits = 1024;
  Rng rng(77);
  ProfileStore store;
  // Shadow model: every user's full action multiset so far, rebuilt from
  // scratch on every comparison, and the version each user should be at.
  std::vector<std::vector<ActionKey>> shadow(kUsers);
  std::vector<std::uint32_t> versions(kUsers, 0);
  for (UserId u = 0; u < kUsers; ++u) {
    shadow[u] = RandomActions(&rng, 20 + static_cast<int>(rng.NextUint64(80)),
                              600, 10);
    store.AddUser(u, shadow[u], kDigestBits);
  }
  const Profile probe(kUsers + 1, RandomActions(&rng, 120, 600, 10), 0,
                      kDigestBits);

  // An update that adds no new action still publishes a new version with
  // the same actions, digest and index.
  const auto expect_unchanged_update =
      [&](UserId u, const std::vector<ActionKey>& batch) {
        const ProfilePtr before = store.Get(u);
        const ProfilePtr after = store.ApplyUpdate(u, batch);
        ++versions[u];
        EXPECT_NE(after.get(), before.get());
        EXPECT_EQ(after->version(), before->version() + 1);
        ExpectProfileIdentical(*after, *before);
      };

  for (int step = 0; step < 400; ++step) {
    const UserId u = static_cast<UserId>(rng.NextUint64(kUsers));
    switch (rng.NextUint64(5)) {
      case 0: {  // a single new action
        const ActionKey a = RandomActions(&rng, 1, 600, 10)[0];
        store.ApplyUpdate(u, {a});
        ++versions[u];
        shadow[u].push_back(a);
        break;
      }
      case 1: {  // an empty batch
        expect_unchanged_update(u, {});
        break;
      }
      case 2: {  // a random batch (may overlap the profile or repeat itself)
        const std::vector<ActionKey> batch = RandomActions(
            &rng, 1 + static_cast<int>(rng.NextUint64(12)), 600, 10);
        store.ApplyUpdate(u, batch);
        ++versions[u];
        shadow[u].insert(shadow[u].end(), batch.begin(), batch.end());
        break;
      }
      case 3: {  // a batch that only repeats actions the user already has
        const std::span<const ActionKey> have = store.Get(u)->actions();
        std::vector<ActionKey> batch;
        const int n = 1 + static_cast<int>(rng.NextUint64(6));
        for (int i = 0; i < n; ++i) {
          batch.push_back(have[rng.NextUint64(have.size())]);
        }
        expect_unchanged_update(u, batch);
        break;
      }
      default: {  // compare the published snapshot against a rebuild
        const ProfilePtr& snapshot = store.Get(u);
        EXPECT_EQ(snapshot->version(), versions[u]);
        const Profile rebuilt(u, shadow[u], snapshot->version(), kDigestBits);
        ExpectProfileIdentical(*snapshot, rebuilt);
        const PairSimilarity via_update =
            KernelPairSimilarity(probe, *snapshot);
        const PairSimilarity via_build = KernelPairSimilarity(probe, rebuilt);
        const PairSimilarity scalar = ComputePairSimilarity(probe, rebuilt);
        EXPECT_EQ(via_update.score, scalar.score);
        EXPECT_EQ(via_update.common_items, scalar.common_items);
        EXPECT_EQ(via_update.a_actions_on_common, scalar.a_actions_on_common);
        EXPECT_EQ(via_update.b_actions_on_common, scalar.b_actions_on_common);
        EXPECT_EQ(via_build.score, scalar.score);
        break;
      }
    }
    if (::testing::Test::HasFailure()) return;  // first divergence is enough
  }
  // Final sweep: every user's current snapshot equals its rebuild.
  for (UserId u = 0; u < kUsers; ++u) {
    const ProfilePtr& snapshot = store.Get(u);
    EXPECT_EQ(snapshot->version(), versions[u]);
    const Profile rebuilt(u, shadow[u], snapshot->version(), kDigestBits);
    ExpectProfileIdentical(*snapshot, rebuilt);
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLanes, IndexFoldLaneTest, ::testing::ValuesIn(UsableSimdLanes()),
    [](const ::testing::TestParamInfo<SimdLane>& info) {
      return std::string(SimdLaneName(info.param));
    });

// ---------------------------------------------------------------------------
// Checkpoint round trip of arena-backed snapshots.
// ---------------------------------------------------------------------------

TEST(IndexFoldCheckpointTest, ArenaSnapshotsRestoreByteIdentically) {
  constexpr int kUsers = 10;
  constexpr std::size_t kDigestBits = 1024;
  Rng rng(99);
  ProfileStore store;
  for (UserId u = 0; u < kUsers; ++u) {
    store.AddUser(u, RandomActions(&rng, 50, 500, 10), kDigestBits);
  }
  for (UserId u = 0; u < kUsers; u += 2) {
    store.ApplyUpdate(u, RandomActions(&rng, 8, 500, 10));
  }

  ProfilePool pool;
  std::vector<std::uint32_t> ids;
  for (UserId u = 0; u < kUsers; ++u) ids.push_back(pool.Intern(store.Get(u)));
  CheckpointWriter w;
  pool.Serialize(&w);

  // Restore WITH the live store: every snapshot is the store's current
  // one, so each must be shared — same object, zero rebuilds.
  {
    const std::uint64_t hits_before = store.MemoryStats().pool_hits;
    CheckpointReader r(w.buffer().data(), w.buffer().size());
    const ProfileTable table =
        ProfileTable::Deserialize(&r, kDigestBits, &store);
    r.ExpectEnd();
    for (UserId u = 0; u < kUsers; ++u) {
      EXPECT_EQ(table.Get(ids[u]).get(), store.Get(u).get())
          << "user " << u << " was rebuilt instead of pooled";
    }
    EXPECT_EQ(store.MemoryStats().pool_hits, hits_before + kUsers);
  }

  // Restore WITHOUT a live twin (fresh store): snapshots are rebuilt into
  // the fresh store's arenas and must be byte-identical to the originals.
  {
    ProfileStore fresh;
    for (UserId u = 0; u < kUsers; ++u) {
      fresh.AddUser(u, {MakeAction(1, 1)}, kDigestBits);
    }
    const std::size_t arena_blocks_before =
        fresh.MemoryStats().arena.live_blocks;
    CheckpointReader r(w.buffer().data(), w.buffer().size());
    const ProfileTable table =
        ProfileTable::Deserialize(&r, kDigestBits, &fresh);
    r.ExpectEnd();
    for (UserId u = 0; u < kUsers; ++u) {
      const ProfilePtr& restored = table.Get(ids[u]);
      ASSERT_NE(restored, nullptr);
      EXPECT_NE(restored.get(), store.Get(u).get());
      ExpectProfileIdentical(*restored, *store.Get(u));
      EXPECT_EQ(restored->version(), store.Get(u)->version());
    }
    // The rebuilt snapshots landed in the fresh store's arena shards.
    EXPECT_EQ(fresh.MemoryStats().arena.live_blocks,
              arena_blocks_before + kUsers);
  }
}

}  // namespace
}  // namespace p3q
