// Shared scalar building blocks of the scoring kernels — used by both the
// portable kernels in score_kernel.cc and the AVX2 lane in
// score_kernel_simd.cc. Internal to profile/: nothing here is part of the
// kernel's public contract (that lives in score_kernel.h), and everything
// must stay exact — these helpers are where the lanes converge, so a change
// here changes every lane at once.
#ifndef P3Q_PROFILE_SCORE_KERNEL_INTERNAL_H_
#define P3Q_PROFILE_SCORE_KERNEL_INTERNAL_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/types.h"
#include "profile/score_kernel.h"

namespace p3q {
namespace kernel_detail {

/// First index >= `from` with arr[index] >= target, by exponential probe +
/// binary search. O(log distance) instead of O(distance).
inline std::size_t GallopTo(const std::uint64_t* arr, std::size_t n,
                            std::size_t from, std::uint64_t target) {
  std::size_t step = 1;
  std::size_t lo = from;
  while (lo + step < n && arr[lo + step] < target) {
    lo += step;
    step <<= 1;
  }
  const std::size_t hi = std::min(n, lo + step + 1);
  return static_cast<std::size_t>(
      std::lower_bound(arr + lo, arr + hi, target) - arr);
}

/// Exact number of equal keys in two sorted unique action runs (the runs of
/// one common item — typically a handful of actions each).
inline std::uint64_t MergeRuns(const ActionKey* a, std::uint32_t na,
                               const ActionKey* b, std::uint32_t nb) {
  std::uint64_t count = 0;
  std::uint32_t i = 0, j = 0;
  while (i < na && j < nb) {
    const ActionKey x = a[i];
    const ActionKey y = b[j];
    count += x == y;
    i += x <= y;
    j += y <= x;
  }
  return count;
}

/// Accumulates one matched item block into the pair statistics: AND the two
/// words, then rank-select every surviving bit into both sides' per-item
/// count/offset arrays and merge the two action runs for the exact score.
/// Takes the block words and rank bases directly so callers that found the
/// match through a hash probe, a dense-table gather or a merge all share
/// the same accumulation.
inline void AccumulateMatch(const ScoreIndex& ia,
                            std::span<const ActionKey> va, std::uint64_t aw,
                            std::uint32_t a_rank, const ScoreIndex& ib,
                            std::span<const ActionKey> vb, std::uint64_t bw,
                            std::uint32_t b_rank, PairSimilarity* sim) {
  std::uint64_t both = aw & bw;
  while (both != 0) {
    const int bit = std::countr_zero(both);
    both &= both - 1;
    const std::uint64_t below = (std::uint64_t{1} << bit) - 1;
    const std::uint32_t ai =
        a_rank + static_cast<std::uint32_t>(std::popcount(aw & below));
    const std::uint32_t bi =
        b_rank + static_cast<std::uint32_t>(std::popcount(bw & below));
    ++sim->common_items;
    sim->a_actions_on_common += ia.item_counts[ai];
    sim->b_actions_on_common += ib.item_counts[bi];
    sim->score += MergeRuns(va.data() + ia.item_offsets[ai],
                            ia.item_counts[ai], vb.data() + ib.item_offsets[bi],
                            ib.item_counts[bi]);
  }
}

/// AccumulateMatch addressed by block indices into the two item bitmaps.
inline void AccumulateBlock(const ScoreIndex& ia,
                            std::span<const ActionKey> va, std::size_t i,
                            const ScoreIndex& ib,
                            std::span<const ActionKey> vb, std::size_t j,
                            PairSimilarity* sim) {
  AccumulateMatch(ia, va, ia.items.words[i], ia.item_rank[i], ib, vb,
                  ib.items.words[j], ib.item_rank[j], sim);
}

}  // namespace kernel_detail
}  // namespace p3q

#endif  // P3Q_PROFILE_SCORE_KERNEL_INTERNAL_H_
