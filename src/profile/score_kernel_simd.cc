#include "profile/score_kernel_simd.h"

#include <atomic>
#include <bit>

#include "common/aligned.h"
#include "common/cpu_features.h"
#include "profile/profile.h"
#include "profile/score_kernel.h"
#include "profile/score_kernel_internal.h"

#ifdef P3Q_SCORE_KERNEL_SIMD_X86
#include <immintrin.h>
#endif

namespace p3q {
namespace {

/// The active lane; -1 until the first ActiveSimdLane() detects it.
std::atomic<int> g_active_lane{-1};

}  // namespace

const char* SimdLaneName(SimdLane lane) {
  switch (lane) {
    case SimdLane::kScalar:
      return "scalar";
    case SimdLane::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool SimdLaneCompiled(SimdLane lane) {
#ifdef P3Q_SCORE_KERNEL_SIMD_X86
  return lane == SimdLane::kScalar || lane == SimdLane::kAvx2;
#else
  return lane == SimdLane::kScalar;
#endif
}

bool SimdLaneUsable(SimdLane lane) {
  if (!SimdLaneCompiled(lane)) return false;
  switch (lane) {
    case SimdLane::kScalar:
      return true;
    case SimdLane::kAvx2:
      return HostCpuFeatures().Avx2Usable();
  }
  return false;
}

std::vector<SimdLane> UsableSimdLanes() {
  std::vector<SimdLane> lanes;
  for (const SimdLane lane : {SimdLane::kScalar, SimdLane::kAvx2}) {
    if (SimdLaneUsable(lane)) lanes.push_back(lane);
  }
  return lanes;
}

SimdLane ActiveSimdLane() {
  int lane = g_active_lane.load(std::memory_order_relaxed);
  if (lane < 0) {
    // The CAS keeps a racing SetSimdLane from being overwritten by the
    // first-use detection; racing detections store the same value.
    const std::vector<SimdLane> usable = UsableSimdLanes();
    int expected = -1;
    g_active_lane.compare_exchange_strong(expected,
                                          static_cast<int>(usable.back()),
                                          std::memory_order_relaxed);
    lane = g_active_lane.load(std::memory_order_relaxed);
  }
  return static_cast<SimdLane>(lane);
}

SimdLane SetSimdLane(SimdLane lane) {
  const SimdLane previous = ActiveSimdLane();
  if (!SimdLaneUsable(lane)) lane = SimdLane::kScalar;
  g_active_lane.store(static_cast<int>(lane), std::memory_order_relaxed);
  return previous;
}

#ifdef P3Q_SCORE_KERNEL_SIMD_X86

// ---------------------------------------------------------------------------
// Batched base-vs-many sweep — two-phase survivor compaction.
//
// The base's item blocks are scattered once per batch into a dense
// [min_block, max_block] table of (word, rank) entries; a candidate block
// then costs one range check + one gather instead of a hash probe.
//
// Phase 1 streams every candidate's block array through the vector lanes —
// range-check, gather, AND, zero-test, four blocks per step — and
// compress-stores the packed (candidate << 32 | block index) of each block
// whose AND survived into a flat survivor list. Every candidate takes the
// sweep, however much larger than the base it is. No scalar work
// happens inside the sweep, so the branch predictor sees one tight
// loop regardless of where the matches fall.
//
// Phase 2 walks the (much shorter) survivor list and does the exact
// rank-select accumulation. The run merge itself is usually a single
// branchless 8x8 all-pairs compare of the two items' 128-bit tag
// signatures (ScoreIndex::tag_sig_a/b); only unpackable runs fall back to
// the scalar MergeRuns. Splitting the phases keeps the mispredict-prone
// accumulation out of the vector sweep — that separation, plus the
// signature merge, is worth ~2x over accumulating inline.
// ---------------------------------------------------------------------------

namespace {

/// One flattened candidate of the running batch: the raw array pointers
/// phase 2 needs, resolved once so survivor processing never touches the
/// Profile or ScoreIndex objects again.
struct CandRef {
  const std::uint64_t* blocks;
  const std::uint64_t* words;
  const std::uint32_t* rank;
  const std::uint32_t* counts;
  const std::uint32_t* offsets;
  const std::uint64_t* sig_a;
  const ActionKey* actions;
  std::uint32_t nblocks;
};

/// Per-thread batch scratch, reused across batches to keep the sweep
/// allocation-free after warmup. Words of absent blocks stay zero, so their
/// AND can never survive the zero test; rank entries of absent blocks are
/// never read.
struct DenseScratch {
  AlignedVector<std::uint64_t> words;
  AlignedVector<std::uint32_t> rank;
  std::vector<std::uint64_t> survivors;
  std::vector<CandRef> tab;
};

thread_local DenseScratch t_dense;

/// Builds the dense table for `ib` or returns false when the block span is
/// too sparse for it (the portable hash path handles those bases).
bool BuildDenseTable(const ScoreIndex& ib, std::uint64_t* bmin_out,
                     std::uint64_t* span_out) {
  const std::size_t nb = ib.items.size();
  if (nb == 0) return false;
  const std::uint64_t bmin = ib.items.blocks.front();
  const std::uint64_t span = ib.items.blocks.back() - bmin + 1;
  if (span > kMaxDenseSpan || span > kDenseSpanFactor * nb) return false;
  t_dense.words.assign(span, 0);
  t_dense.rank.resize(span);
  for (std::size_t j = 0; j < nb; ++j) {
    const std::size_t r = static_cast<std::size_t>(ib.items.blocks[j] - bmin);
    t_dense.words[r] = ib.items.words[j];
    t_dense.rank[r] = ib.item_rank[j];
  }
  *bmin_out = bmin;
  *span_out = span;
  return true;
}

/// Flattens the batch into t_dense.tab, zeroes `out`, and returns the total
/// candidate block count (the survivor list's capacity bound).
std::size_t FlattenBatch(const Profile* const* candidates, std::size_t n,
                         PairSimilarity* out) {
  t_dense.tab.resize(n);
  std::size_t total = 0;
  for (std::size_t c = 0; c < n; ++c) {
    const Profile& cand = *candidates[c];
    const ScoreIndex& ic = cand.index();
    out[c] = PairSimilarity{};
    t_dense.tab[c] =
        CandRef{ic.items.blocks.data(),  ic.items.words.data(),
                ic.item_rank.data(),     ic.item_counts.data(),
                ic.item_offsets.data(),  ic.tag_sig_a.data(),
                cand.actions().data(),   static_cast<std::uint32_t>(
                                             ic.items.size())};
    total += ic.items.size();
  }
  return total;
}

/// Lane-compaction shuffles for the AVX2 survivor store: entry m rotates
/// the qword pairs (as epi32 index pairs) so the qwords whose mask bit is
/// set land first, in lane order.
alignas(32) const int kSurvivorCompress[16][8] = {
    {0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7},
    {2, 3, 0, 1, 4, 5, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7},
    {4, 5, 0, 1, 2, 3, 6, 7}, {0, 1, 4, 5, 2, 3, 6, 7},
    {2, 3, 4, 5, 0, 1, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7},
    {6, 7, 0, 1, 2, 3, 4, 5}, {0, 1, 6, 7, 2, 3, 4, 5},
    {2, 3, 6, 7, 0, 1, 4, 5}, {0, 1, 2, 3, 6, 7, 4, 5},
    {4, 5, 6, 7, 0, 1, 2, 3}, {0, 1, 4, 5, 6, 7, 2, 3},
    {2, 3, 4, 5, 6, 7, 0, 1}, {0, 1, 2, 3, 4, 5, 6, 7},
};

/// Branchless |run_a ∩ run_b| of two packable runs via their tag
/// signatures: compare the a-form against 8 lane rotations of the b-form.
/// Keys of one item differ only in their tag, both runs are duplicate-free,
/// and the pad sentinels (0xffff vs 0xfffe) can never match anything, so
/// the number of equal 16-bit lane pairs is exactly the intersection size.
__attribute__((target("avx2"))) inline std::uint64_t TagSigMerge(
    const std::uint64_t* sa, const std::uint64_t* sb) {
  const __m128i a128 = _mm_load_si128(reinterpret_cast<const __m128i*>(sa));
  const __m128i b128 = _mm_load_si128(reinterpret_cast<const __m128i*>(sb));
  const __m256i aa = _mm256_broadcastsi128_si256(a128);
  // y = [rot0, rot1] of b; alignr by 4 bytes within each 128-bit half
  // advances both copies two rotations, so 4 iterations cover all 8.
  __m256i y = _mm256_set_m128i(_mm_alignr_epi8(b128, b128, 2), b128);
  unsigned hits = 0;
  for (int r = 0; r < 4; ++r) {
    const __m256i eq = _mm256_cmpeq_epi16(aa, y);
    hits += static_cast<unsigned>(std::popcount(
        static_cast<unsigned>(_mm256_movemask_epi8(eq)) & 0xaaaaaaaau));
    y = _mm256_alignr_epi8(y, y, 4);
  }
  return hits;
}

/// Phase 2: exact accumulation of the survivor list, then the batch-wide
/// orientation swap from (candidate, base) to (base, candidate).
__attribute__((target("avx2"))) void AccumulateSurvivors(
    const Profile& base, std::uint64_t bmin, std::size_t n, std::size_t k,
    PairSimilarity* out) {
  const ScoreIndex& ib = base.index();
  const std::uint32_t* b_counts = ib.item_counts.data();
  const std::uint32_t* b_offsets = ib.item_offsets.data();
  const std::uint64_t* b_sig = ib.tag_sig_b.data();
  const ActionKey* b_actions = base.actions().data();
  for (std::size_t e = 0; e < k; ++e) {
    const std::uint64_t v = t_dense.survivors[e];
    const std::size_t c = static_cast<std::size_t>(v >> 32);
    const std::size_t i = static_cast<std::size_t>(v & 0xffffffffu);
    const CandRef& cand = t_dense.tab[c];
    const std::size_t r = static_cast<std::size_t>(cand.blocks[i] - bmin);
    const std::uint64_t aw = cand.words[i];
    const std::uint64_t bw = t_dense.words[r];
    std::uint64_t both = aw & bw;
    const std::uint32_t a_rank = cand.rank[i];
    const std::uint32_t b_rank = t_dense.rank[r];
    PairSimilarity& sim = out[c];
    while (both != 0) {
      const int bit = std::countr_zero(both);
      both &= both - 1;
      const std::uint64_t below = (std::uint64_t{1} << bit) - 1;
      const std::uint32_t ai =
          a_rank + static_cast<std::uint32_t>(std::popcount(aw & below));
      const std::uint32_t bi =
          b_rank + static_cast<std::uint32_t>(std::popcount(bw & below));
      ++sim.common_items;
      sim.a_actions_on_common += cand.counts[ai];
      sim.b_actions_on_common += b_counts[bi];
      const std::uint64_t* sa = cand.sig_a + ai * 2;
      const std::uint64_t* sb = b_sig + bi * 2;
      if ((sa[0] | sa[1]) != 0 && (sb[0] | sb[1]) != 0) {
        sim.score += TagSigMerge(sa, sb);
      } else {
        sim.score += kernel_detail::MergeRuns(
            cand.actions + cand.offsets[ai], cand.counts[ai],
            b_actions + b_offsets[bi], b_counts[bi]);
      }
    }
  }
  for (std::size_t c = 0; c < n; ++c) {
    std::swap(out[c].a_actions_on_common, out[c].b_actions_on_common);
  }
}

}  // namespace

__attribute__((target("avx2"))) bool Avx2PairSimilarityBatch(
    const Profile& base, const Profile* const* candidates, std::size_t n,
    PairSimilarity* out) {
  const ScoreIndex& ib = base.index();
  std::uint64_t bmin = 0, span = 0;
  if (!BuildDenseTable(ib, &bmin, &span)) return false;
  const std::size_t total = FlattenBatch(candidates, n, out);
  // The compressed store writes a full vector; headroom past `total` keeps
  // the overshoot in bounds.
  t_dense.survivors.resize(total + 4);
  const __m256i vbmin = _mm256_set1_epi64x(static_cast<long long>(bmin));
  const __m256i vspan = _mm256_set1_epi64x(static_cast<long long>(span));
  const __m256i zero = _mm256_setzero_si256();
  const __m256i iota = _mm256_setr_epi64x(0, 1, 2, 3);
  const long long* table =
      reinterpret_cast<const long long*>(t_dense.words.data());
  std::size_t k = 0;
  for (std::size_t c = 0; c < n; ++c) {
    const CandRef& cand = t_dense.tab[c];
    const std::size_t ncb = cand.nblocks;
    const __m256i vc =
        _mm256_set1_epi64x(static_cast<long long>(c) << 32);
    std::size_t i = 0;
    for (; i + 4 <= ncb; i += 4) {
      const __m256i blk =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cand.blocks + i));
      const __m256i r = _mm256_sub_epi64(blk, vbmin);
      // In-range: 0 <= r < span. Block ids fit in 58 bits, so the signed
      // compares are exact (a candidate block below bmin wraps negative).
      const __m256i ok = _mm256_andnot_si256(_mm256_cmpgt_epi64(zero, r),
                                             _mm256_cmpgt_epi64(vspan, r));
      const __m256i gathered =
          _mm256_mask_i64gather_epi64(zero, table, r, ok, 8);
      const __m256i both = _mm256_and_si256(
          gathered,
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cand.words + i)));
      const unsigned m =
          static_cast<unsigned>(~_mm256_movemask_pd(
              _mm256_castsi256_pd(_mm256_cmpeq_epi64(both, zero)))) &
          0xf;
      const __m256i pack = _mm256_or_si256(
          vc,
          _mm256_add_epi64(iota, _mm256_set1_epi64x(static_cast<long long>(i))));
      const __m256i packed = _mm256_permutevar8x32_epi32(
          pack,
          _mm256_load_si256(
              reinterpret_cast<const __m256i*>(kSurvivorCompress[m])));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(t_dense.survivors.data() + k), packed);
      k += static_cast<std::size_t>(std::popcount(m));
    }
    for (; i < ncb; ++i) {
      const std::uint64_t r = cand.blocks[i] - bmin;
      const std::uint64_t bw = r < span ? t_dense.words[r] : 0;
      t_dense.survivors[k] = (static_cast<std::uint64_t>(c) << 32) | i;
      k += (cand.words[i] & bw) != 0;
    }
  }
  AccumulateSurvivors(base, bmin, n, k, out);
  return true;
}

#endif  // P3Q_SCORE_KERNEL_SIMD_X86

}  // namespace p3q
