// Differential tests for the batched similarity-scoring kernel
// (profile/score_kernel.h): every kernel must return exactly the counts of
// the scalar reference merges in profile.cc, for every profile shape —
// that exactness is what keeps all four SimilarityMetrics and every
// scenario golden byte-identical regardless of which path scored a pair.
#include "profile/score_kernel.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "dataset/generator.h"
#include "profile/profile.h"
#include "profile/profile_store.h"
#include "profile/score_kernel_simd.h"
#include "profile/similarity.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace p3q {
namespace {

using test::MakeProfile;

constexpr SimilarityMetric kAllMetrics[] = {
    SimilarityMetric::kCommonActions, SimilarityMetric::kJaccard,
    SimilarityMetric::kCosine, SimilarityMetric::kOverlap};

/// A random profile: `num_items` items from `universe`, 1-4 actions each,
/// tag ids in [0, tag_universe).
Profile RandomProfile(UserId owner, int num_items, int universe,
                      int tag_universe, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ActionKey> actions;
  for (int i = 0; i < num_items; ++i) {
    const auto item = static_cast<ItemId>(rng.NextUint64(universe));
    const int tags = 1 + static_cast<int>(rng.NextUint64(4));
    for (int t = 0; t < tags; ++t) {
      actions.push_back(MakeAction(
          item, static_cast<TagId>(rng.NextUint64(tag_universe))));
    }
  }
  return Profile(owner, std::move(actions), 0, /*digest_bits=*/1024);
}

void ExpectSameAsScalar(const Profile& a, const Profile& b) {
  const PairSimilarity scalar = ComputePairSimilarity(a, b);
  const PairSimilarity kernel = KernelPairSimilarity(a, b);
  EXPECT_EQ(kernel.score, scalar.score);
  EXPECT_EQ(kernel.common_items, scalar.common_items);
  EXPECT_EQ(kernel.a_actions_on_common, scalar.a_actions_on_common);
  EXPECT_EQ(kernel.b_actions_on_common, scalar.b_actions_on_common);
  EXPECT_EQ(kernel.score, CountCommonActions(a.actions(), b.actions()));
  // Every metric maps the same exact counts, so all four agree with the
  // scalar-fed scores.
  for (const SimilarityMetric metric : kAllMetrics) {
    EXPECT_EQ(
        SimilarityScore(metric, kernel.score, a.Length(), b.Length()),
        SimilarityScore(metric, scalar.score, a.Length(), b.Length()));
  }
}

TEST(BlockBitmapTest, RoundTripsMembership) {
  const std::vector<std::uint64_t> keys = {0,  1,  63,  64,  65,
                                           127, 128, 1000, 4096, 1 << 20};
  const BlockBitmap bitmap = BlockBitmap::Build(keys);
  std::size_t total = 0;
  for (std::size_t i = 0; i < bitmap.size(); ++i) {
    ASSERT_LT(i + 1 == bitmap.size() ? 0 : i, bitmap.size());
    total += static_cast<std::size_t>(std::popcount(bitmap.words[i]));
    for (int b = 0; b < 64; ++b) {
      const bool member = (bitmap.words[i] >> b) & 1;
      const std::uint64_t key = (bitmap.blocks[i] << 6) | b;
      EXPECT_EQ(member, std::binary_search(keys.begin(), keys.end(), key));
    }
  }
  EXPECT_EQ(total, keys.size());
  EXPECT_TRUE(std::is_sorted(bitmap.blocks.begin(), bitmap.blocks.end()));
}

TEST(BlockBitmapTest, IntersectMatchesScalar) {
  Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    // Keys drawn from a 2000-action universe: 250 items x 8 tags, so the
    // item bitmaps span several blocks and runs reach 8 actions.
    auto random_key = [&rng] {
      const std::uint64_t key = rng.NextUint64(2000);
      return MakeAction(static_cast<ItemId>(key >> 3),
                        static_cast<TagId>(key & 7));
    };
    std::vector<ActionKey> a, b;
    const int na = 1 + static_cast<int>(rng.NextUint64(300));
    const int nb = 1 + static_cast<int>(rng.NextUint64(300));
    for (int i = 0; i < na; ++i) a.push_back(random_key());
    for (int i = 0; i < nb; ++i) b.push_back(random_key());
    const Profile pa(1, std::move(a), 0, /*digest_bits=*/1024);
    const Profile pb(2, std::move(b), 0, /*digest_bits=*/1024);
    EXPECT_EQ(KernelPairSimilarity(pa, pb).score,
              CountCommonActions(pa.actions(), pb.actions()));
  }
}

TEST(ScoreIndexTest, RankSelectLocatesEveryItem) {
  const Profile p = RandomProfile(1, 200, 400, 50, 7);
  const ScoreIndex& index = p.index();
  ASSERT_EQ(index.item_rank.size(), index.items.size());
  ASSERT_EQ(index.item_offsets.size(), index.item_counts.size() + 1);
  EXPECT_EQ(index.item_offsets.back(), p.actions().size());
  // Walking the bitmap in (block, bit) order must enumerate the distinct
  // items ascending, with counts/offsets describing each item's action run.
  std::uint32_t idx = 0;
  for (std::size_t blk = 0; blk < index.items.size(); ++blk) {
    EXPECT_EQ(index.item_rank[blk], idx);
    std::uint64_t word = index.items.words[blk];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      word &= word - 1;
      const ItemId item =
          static_cast<ItemId>((index.items.blocks[blk] << 6) | bit);
      const std::uint32_t off = index.item_offsets[idx];
      for (std::uint32_t k = 0; k < index.item_counts[idx]; ++k) {
        EXPECT_EQ(ActionItem(p.actions()[off + k]), item);
      }
      ++idx;
    }
  }
  EXPECT_EQ(idx, index.item_counts.size());
}

TEST(ScoreKernelTest, EmptyDisjointIdentical) {
  const Profile empty(1, {}, 0, 1024);
  const Profile other = RandomProfile(2, 50, 100, 20, 3);
  ExpectSameAsScalar(empty, other);
  ExpectSameAsScalar(other, empty);
  ExpectSameAsScalar(empty, empty);

  // Fully disjoint item universes.
  const Profile lo = MakeProfile(3, {{1, 1}, {2, 5}, {3, 9}});
  const Profile hi = MakeProfile(4, {{1000, 1}, {2000, 5}, {3000, 9}});
  ExpectSameAsScalar(lo, hi);
  EXPECT_FALSE(KernelSharesItem(lo, hi));

  // Same actions, different owners: full overlap.
  const Profile twin_a = RandomProfile(5, 120, 240, 16, 11);
  std::vector<ActionKey> copy(twin_a.actions().begin(),
                              twin_a.actions().end());
  const Profile twin_b(6, std::move(copy), 0, 1024);
  ExpectSameAsScalar(twin_a, twin_b);
  EXPECT_EQ(KernelPairSimilarity(twin_a, twin_b).score, twin_a.Length());

  // Same item tagged with different tags: common item, zero score.
  const Profile ta = MakeProfile(7, {{42, 1}});
  const Profile tb = MakeProfile(8, {{42, 2}});
  const PairSimilarity sim = KernelPairSimilarity(ta, tb);
  EXPECT_EQ(sim.score, 0u);
  EXPECT_EQ(sim.common_items, 1u);
  EXPECT_TRUE(KernelSharesItem(ta, tb));
  ExpectSameAsScalar(ta, tb);
}

void RunRandomizedDifferentialSweep() {
  Rng rng(123);
  for (int round = 0; round < 120; ++round) {
    const int universe = 20 + static_cast<int>(rng.NextUint64(500));
    const int tags = 1 + static_cast<int>(rng.NextUint64(200));
    const int na = static_cast<int>(rng.NextUint64(180));
    const int nb = static_cast<int>(rng.NextUint64(180));
    const Profile a =
        RandomProfile(1, na, universe, tags, rng.NextUint64(1u << 30));
    const Profile b =
        RandomProfile(2, nb, universe, tags, rng.NextUint64(1u << 30));
    ExpectSameAsScalar(a, b);
    EXPECT_EQ(KernelSharesItem(a, b),
              !a.CommonItems(b).empty());
  }
}

TEST(ScoreKernelTest, RandomizedDifferentialSweep) {
  RunRandomizedDifferentialSweep();
}

TEST(ScoreKernelTest, SkewedPairsScoreExactly) {
  // One side with more than 16x the other's item blocks, in both
  // orientations, plus block-sparse profiles (items spread over a huge
  // universe: one item per block).
  const Profile tiny = RandomProfile(1, 5, 1 << 20, 8, 21);
  const Profile huge = RandomProfile(2, 4000, 1 << 20, 8, 22);
  ASSERT_GT(huge.index().items.size(), tiny.index().items.size() * 16);
  ExpectSameAsScalar(tiny, huge);
  ExpectSameAsScalar(huge, tiny);

  // Skewed but overlapping: the small side is a subset of the large side.
  std::vector<ActionKey> subset(huge.actions().begin(),
                                huge.actions().begin() + 12);
  const Profile sub(3, std::move(subset), 0, 1024);
  ExpectSameAsScalar(sub, huge);
  ExpectSameAsScalar(huge, sub);
  EXPECT_EQ(KernelPairSimilarity(sub, huge).score, sub.Length());
}

/// Batch-vs-scalar check of `base` against `candidates`.
void ExpectBatchMatchesScalar(const Profile& base,
                              const std::vector<const Profile*>& candidates) {
  std::vector<PairSimilarity> batched(candidates.size());
  KernelPairSimilarityBatch(base, candidates.data(), candidates.size(),
                            batched.data());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const PairSimilarity scalar = ComputePairSimilarity(base, *candidates[i]);
    EXPECT_EQ(batched[i].score, scalar.score) << i;
    EXPECT_EQ(batched[i].common_items, scalar.common_items) << i;
    EXPECT_EQ(batched[i].a_actions_on_common, scalar.a_actions_on_common)
        << i;
    EXPECT_EQ(batched[i].b_actions_on_common, scalar.b_actions_on_common)
        << i;
  }
}

void RunBatchMatchesPerPairKernel() {
  Rng rng(77);
  const Profile base = RandomProfile(1, 150, 300, 40, 1);
  std::vector<std::unique_ptr<Profile>> owned;
  std::vector<const Profile*> candidates;
  for (int i = 0; i < 40; ++i) {
    // Mix of regular, empty, disjoint and skewed (4000-action) candidates.
    const int n = i % 7 == 0 ? 0 : (i % 5 == 0 ? 4000 : 80);
    owned.push_back(std::make_unique<Profile>(RandomProfile(
        static_cast<UserId>(i + 2), n, i % 3 == 0 ? 1 << 18 : 300, 40,
        rng.NextUint64(1u << 30))));
    candidates.push_back(owned.back().get());
  }
  // Some candidates have more than 16x the base's item blocks.
  EXPECT_TRUE(std::any_of(
      candidates.begin(), candidates.end(), [&base](const Profile* c) {
        return c->index().items.size() > base.index().items.size() * 16;
      }));
  ExpectBatchMatchesScalar(base, candidates);
}

TEST(ScoreKernelTest, BatchMatchesPerPairKernel) {
  RunBatchMatchesPerPairKernel();
}

void RunBatchOnRealTraceProfiles() {
  const SyntheticTrace trace =
      GenerateSyntheticTrace(SyntheticConfig::DeliciousLike(120), 9);
  const ProfileStore store = trace.dataset().BuildProfileStore();
  const Profile& base = *store.Get(0);
  std::vector<const Profile*> candidates;
  for (UserId u = 1; u < 120; ++u) candidates.push_back(store.Get(u).get());
  ExpectBatchMatchesScalar(base, candidates);
}

TEST(ScoreKernelTest, BatchOnRealTraceProfiles) { RunBatchOnRealTraceProfiles(); }

// ---------------------------------------------------------------------------
// Lane-parameterized differential suite: the same checks must hold with the
// kernel pinned to every usable SIMD lane (including forced scalar), since
// the dispatch contract is that all lanes are bit-identical.
// ---------------------------------------------------------------------------

class ScoreKernelLaneTest : public ::testing::TestWithParam<SimdLane> {
 protected:
  void SetUp() override { previous_ = SetSimdLane(GetParam()); }
  void TearDown() override { SetSimdLane(previous_); }

 private:
  SimdLane previous_ = SimdLane::kScalar;
};

TEST_P(ScoreKernelLaneTest, RandomizedDifferentialSweep) {
  RunRandomizedDifferentialSweep();
}

TEST_P(ScoreKernelLaneTest, BatchMatchesPerPairKernel) {
  RunBatchMatchesPerPairKernel();
}

TEST_P(ScoreKernelLaneTest, BatchOnRealTraceProfiles) {
  RunBatchOnRealTraceProfiles();
}

/// Runs the tag-signature fallbacks: items whose runs are too long to pack
/// (> kTagSigLanes actions) or whose tags collide with the u16 pad
/// sentinels (> kTagSigMaxTag, including 0xfffe/0xffff exactly) must take
/// the scalar run merge inside the SIMD batch and still be exact.
TEST_P(ScoreKernelLaneTest, UnpackableRunsFallBackExactly) {
  auto mixed_profile = [](UserId owner, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<ActionKey> actions;
    for (ItemId item = 0; item < 64; ++item) {
      switch (static_cast<int>(rng.NextUint64(4))) {
        case 0:  // packable: short run, small tags
          for (int t = 0; t < 3; ++t) {
            actions.push_back(MakeAction(item, static_cast<TagId>(t * 7)));
          }
          break;
        case 1:  // count-unpackable: more than kTagSigLanes actions
          for (int t = 0; t < static_cast<int>(kTagSigLanes) + 3; ++t) {
            actions.push_back(MakeAction(item, static_cast<TagId>(t)));
          }
          break;
        case 2:  // tag-unpackable: tags above the packable cap
          actions.push_back(MakeAction(item, kTagSigMaxTag + 1));
          actions.push_back(
              MakeAction(item, static_cast<TagId>(0x10000 + item)));
          break;
        default:  // the pad sentinel values themselves as real tags
          actions.push_back(MakeAction(item, 0xfffe));
          actions.push_back(MakeAction(item, 0xffff));
          actions.push_back(MakeAction(item, kTagSigMaxTag));
          break;
      }
    }
    return Profile(owner, std::move(actions), 0, /*digest_bits=*/1024);
  };
  const Profile base = mixed_profile(1, 5);
  std::vector<std::unique_ptr<Profile>> owned;
  std::vector<const Profile*> candidates;
  for (int i = 0; i < 16; ++i) {
    owned.push_back(std::make_unique<Profile>(
        mixed_profile(static_cast<UserId>(i + 2), 100 + i)));
    candidates.push_back(owned.back().get());
  }
  ExpectBatchMatchesScalar(base, candidates);
  ExpectSameAsScalar(base, *candidates[0]);
}

/// A base whose item blocks span far more than kMaxDenseSpan: the SIMD
/// lanes must decline the dense sweep and the portable hash path must
/// produce the same exact counts.
TEST_P(ScoreKernelLaneTest, SparseBaseDeclinesDenseTable) {
  const Profile base = RandomProfile(1, 200, 1 << 24, 12, 31);
  ASSERT_GT(base.index().items.blocks.back() - base.index().items.blocks[0],
            kMaxDenseSpan);
  std::vector<std::unique_ptr<Profile>> owned;
  std::vector<const Profile*> candidates;
  Rng rng(32);
  for (int i = 0; i < 12; ++i) {
    // Subsets of the base guarantee overlap even in the huge universe.
    std::vector<ActionKey> subset;
    for (const ActionKey key : base.actions()) {
      if (rng.NextUint64(3) == 0) subset.push_back(key);
    }
    owned.push_back(std::make_unique<Profile>(
        Profile(static_cast<UserId>(i + 2), std::move(subset), 0, 1024)));
    candidates.push_back(owned.back().get());
  }
  ExpectBatchMatchesScalar(base, candidates);
}

INSTANTIATE_TEST_SUITE_P(
    AllLanes, ScoreKernelLaneTest, ::testing::ValuesIn(UsableSimdLanes()),
    [](const ::testing::TestParamInfo<SimdLane>& info) {
      return std::string(SimdLaneName(info.param));
    });

// ---------------------------------------------------------------------------
// Batched sweep properties the differential suites do not cover: orientation
// under swapped roles, and the per-thread scratch under concurrent batches.
// Both run per lane, with at least kMinHashBatch candidates per batch so the
// sweep runs rather than the per-pair fallback.
// ---------------------------------------------------------------------------

class KernelBatchLaneTest : public ScoreKernelLaneTest {};

/// sims[i][j] = KernelPairSimilarityBatch(*profiles[i], profiles)[j].
std::vector<std::vector<PairSimilarity>> AllPairsByBatch(
    const std::vector<const Profile*>& profiles) {
  std::vector<std::vector<PairSimilarity>> sims(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    sims[i].resize(profiles.size());
    KernelPairSimilarityBatch(*profiles[i], profiles.data(), profiles.size(),
                              sims[i].data());
  }
  return sims;
}

TEST_P(KernelBatchLaneTest, OrientationFollowsArgumentOrder) {
  const SyntheticTrace trace = test::SmallTrace(30, 7);
  const ProfileStore store = trace.dataset().BuildProfileStore();
  std::vector<const Profile*> profiles;
  for (UserId u = 0; u < 12; ++u) profiles.push_back(store.Get(u).get());
  ASSERT_GE(profiles.size(), kMinHashBatch);
  const auto sims = AllPairsByBatch(profiles);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    for (std::size_t j = 0; j < profiles.size(); ++j) {
      const PairSimilarity& ij = sims[i][j];
      const PairSimilarity& ji = sims[j][i];
      EXPECT_EQ(ij.score, ji.score) << i << "," << j;
      EXPECT_EQ(ij.common_items, ji.common_items) << i << "," << j;
      EXPECT_EQ(ij.a_actions_on_common, ji.b_actions_on_common)
          << i << "," << j;
      EXPECT_EQ(ij.b_actions_on_common, ji.a_actions_on_common)
          << i << "," << j;
    }
  }
}

/// The AVX2 sweep keeps its dense table and survivor list in thread_local
/// scratch; concurrent batches on different threads must not interfere.
TEST_P(KernelBatchLaneTest, ConcurrentBatchesAgree) {
  const SyntheticTrace trace = test::SmallTrace(50, 11);
  const ProfileStore store = trace.dataset().BuildProfileStore();
  std::vector<const Profile*> profiles;
  for (UserId u = 0; u < 50; ++u) profiles.push_back(store.Get(u).get());
  const auto expected = AllPairsByBatch(profiles);
  for (const int threads : {1, 2, 8}) {
    std::vector<std::vector<std::vector<PairSimilarity>>> results(threads);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] { results[t] = AllPairsByBatch(profiles); });
    }
    for (std::thread& w : workers) w.join();
    for (const auto& result : results) {
      ASSERT_EQ(result.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        for (std::size_t j = 0; j < expected.size(); ++j) {
          EXPECT_EQ(result[i][j].score, expected[i][j].score);
          EXPECT_EQ(result[i][j].common_items, expected[i][j].common_items);
          EXPECT_EQ(result[i][j].a_actions_on_common,
                    expected[i][j].a_actions_on_common);
          EXPECT_EQ(result[i][j].b_actions_on_common,
                    expected[i][j].b_actions_on_common);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLanes, KernelBatchLaneTest, ::testing::ValuesIn(UsableSimdLanes()),
    [](const ::testing::TestParamInfo<SimdLane>& info) {
      return std::string(SimdLaneName(info.param));
    });

// ---------------------------------------------------------------------------
// End to end: the batched plan phase is byte-identical for every metric and
// thread count (the kernels feed the same numbers regardless of both).
// ---------------------------------------------------------------------------

/// Deterministic digest of every personal network: (member, score) pairs in
/// network order, plus stored-replica versions.
std::uint64_t NetworksDigest(P3QSystem& system) {
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (UserId u = 0; u < static_cast<UserId>(system.NumUsers()); ++u) {
    const PersonalNetwork& network = system.node(u).network();
    for (const NetworkEntry& e : network.entries()) {
      mix(e.user);
      mix(e.score);
      mix(e.HasStoredProfile() ? network.StoredProfileOf(e)->version() + 1
                               : 0);
    }
  }
  return h;
}

TEST(ScoreKernelSystemTest, LazyConvergenceIdenticalAcrossSimdLanes) {
  std::uint64_t reference = 0;
  bool have_reference = false;
  for (const SimdLane lane : UsableSimdLanes()) {
    const SimdLane previous = SetSimdLane(lane);
    SyntheticTrace trace = test::SmallTrace(80, 13);
    P3QSystem system(trace.dataset(), test::SmallConfig(), {}, 13);
    system.SetThreads(2);
    system.BootstrapRandomViews();
    system.RunLazyCycles(15);
    const std::uint64_t digest = NetworksDigest(system);
    SetSimdLane(previous);
    if (!have_reference) {
      reference = digest;
      have_reference = true;
    } else {
      EXPECT_EQ(digest, reference) << SimdLaneName(lane) << " diverged";
    }
  }
}

TEST(ScoreKernelSystemTest, LazyConvergenceIdenticalAcrossMetricsAndThreads) {
  for (const SimilarityMetric metric : kAllMetrics) {
    std::uint64_t reference = 0;
    bool have_reference = false;
    for (const int threads : {1, 2, 8}) {
      SyntheticTrace trace = test::SmallTrace(80, 13);
      P3QConfig config = test::SmallConfig();
      config.similarity = metric;
      P3QSystem system(trace.dataset(), config, {}, 13);
      system.SetThreads(threads);
      system.BootstrapRandomViews();
      system.RunLazyCycles(15);
      const std::uint64_t digest = NetworksDigest(system);
      if (!have_reference) {
        reference = digest;
        have_reference = true;
      } else {
        EXPECT_EQ(digest, reference)
            << SimilarityMetricName(metric) << " with " << threads
            << " threads diverged";
      }
    }
  }
}

}  // namespace
}  // namespace p3q
