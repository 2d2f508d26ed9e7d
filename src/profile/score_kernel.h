// Batched similarity-scoring kernel — the protocol's hottest loop.
//
// Similarity scoring (|Profile(a) ∩ Profile(b)|, Section 2.1) dominates the
// plan phase: personal-network maintenance screens and scores every gossip
// candidate each cycle, so at scale the per-pair scalar merge of two sorted
// action vectors is where the wall-clock goes. This module gives every
// profile a compact 64-bit *block bitmap* of its distinct items, built once
// at snapshot construction: item ids are bucketed into 64-item blocks
// (block id = item >> 6) and each block carries one word with bit
// (item & 63) set per member. One AND + popcount then finds all common
// items of a 64-item range at once.
//
// The pair kernel intersects the two item bitmaps, rank-selects each
// surviving bit into the per-item count/offset arrays, and merges only the
// tiny action runs of genuinely common items for the exact score. The
// batched entry point additionally builds a small open-addressing hash of
// the base profile's item blocks ONCE per batch, so every candidate is
// scored with O(candidate blocks) O(1) probes instead of a merge — that
// per-batch amortization is where the pairs/sec multiple over the scalar
// path comes from (bench/bench_micro_similarity.cc measures it).
//
// For very skewed pairs (one side much smaller than the other) a merge is
// the wrong shape: the kernels fall back to galloping (exponential probe +
// binary search) over the sorted block array of the larger side, which is
// O(small * log(large)) instead of O(small + large).
//
// Every kernel returns *exact* intersection counts — bit-for-bit equal to
// the scalar reference merges in profile.cc — so all four SimilarityMetrics
// and every scenario golden are byte-identical regardless of which code
// path scored a pair. The randomized differential suite in
// tests/score_kernel_test.cc enforces this.
//
// Storage model: the kernels read *views* (ScoreIndex — spans over packed
// per-snapshot storage, profile.h); building happens through the owning
// ScoreIndexData, either from scratch (Build) or by folding a sorted delta
// into an existing snapshot's index (Fold). Fold is bit-identical to a
// from-scratch Build of the merged action set — every array is a pure
// function of the action set, and tests/index_fold_test.cc enforces the
// equality array-by-array across all SIMD lanes.
#ifndef P3Q_PROFILE_SCORE_KERNEL_H_
#define P3Q_PROFILE_SCORE_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/types.h"

namespace p3q {

class Profile;

/// Everything the lazy-mode 3-step exchange needs to know about a profile
/// pair, computed in one kernel sweep:
///  - score: |Profile(a) ∩ Profile(b)| (the similarity),
///  - common_items: items tagged by both,
///  - a_actions_on_common / b_actions_on_common: how many of each side's
///    actions concern common items (step 2 of Algorithm 1 ships exactly
///    those actions, so they drive the byte accounting).
struct PairSimilarity {
  std::uint64_t score = 0;
  std::uint32_t common_items = 0;
  std::uint32_t a_actions_on_common = 0;
  std::uint32_t b_actions_on_common = 0;
};

/// A sorted key set bucketed into 64-key blocks: `blocks[i]` is a distinct
/// key >> 6 (ascending) and `words[i]` has bit (key & 63) set for every
/// member key of that block. Owning form; the kernels themselves consume
/// BitmapView so packed (arena-backed) snapshots and standalone bitmaps
/// share one code path. Storage is 64-byte aligned, like every array of a
/// packed snapshot (profile.h).
struct BlockBitmap {
  AlignedVector<std::uint64_t> blocks;
  AlignedVector<std::uint64_t> words;

  std::size_t size() const { return blocks.size(); }

  /// Builds the bitmap of a sorted unique key sequence.
  static BlockBitmap Build(std::span<const std::uint64_t> sorted_keys);
};

/// Non-owning view of a block bitmap — what every kernel reads. Packed
/// snapshot storage (profile.h) and owning BlockBitmaps both project to
/// this.
struct BitmapView {
  std::span<const std::uint64_t> blocks;
  std::span<const std::uint64_t> words;

  BitmapView() = default;
  BitmapView(const BlockBitmap& b) : blocks(b.blocks), words(b.words) {}
  BitmapView(std::span<const std::uint64_t> blocks_in,
             std::span<const std::uint64_t> words_in)
      : blocks(blocks_in), words(words_in) {}

  std::size_t size() const { return blocks.size(); }
};

/// Size ratio past which the kernels switch from the block-merge to
/// galloping lookups of the smaller side in the larger one.
inline constexpr std::size_t kGallopSkewRatio = 16;

/// Batch size below which KernelPairSimilarityBatch skips building the
/// per-batch hash of the base's item blocks and scores pair-by-pair — for
/// a couple of candidates the setup costs more than the probes save.
inline constexpr std::size_t kMinHashBatch = 8;

/// Tag-signature packing limits (see ScoreIndex::tag_sig_a): an item's run
/// is packable when it has at most kTagSigLanes actions and every tag is at
/// most kTagSigMaxTag — the two values above it are the pad sentinels.
inline constexpr std::size_t kTagSigLanes = 8;
inline constexpr std::uint32_t kTagSigMaxTag = 0xfffd;

/// Per-profile scoring index *view*, spanning storage packed alongside the
/// snapshot's action vector (one arena block per profile — profile.h).
/// Profiles are immutable, so the index is shared by every replica of the
/// snapshot for free. Distinct items are represented implicitly by the item
/// bitmap: the i-th set bit (in block, then bit order) is the i-th distinct
/// item, located by rank-select — `item_rank[block] + popcount(word &
/// (bit - 1))` — into the count/offset arrays.
struct ScoreIndex {
  /// Block bitmap over the distinct item ids — drives the shares-an-item
  /// screen and the pair kernel's common-item discovery.
  BitmapView items;
  /// Per item block: number of distinct items in earlier blocks (the
  /// rank-select base).
  std::span<const std::uint32_t> item_rank;
  /// Per distinct item (ascending): its action count, and the offset of
  /// its action run in the profile's sorted action vector. item_offsets
  /// has one trailing entry holding the total action count.
  std::span<const std::uint32_t> item_counts;
  std::span<const std::uint32_t> item_offsets;
  /// Per distinct item: a 128-bit *tag signature* (two u64 words, lane l =
  /// bits [16l, 16l+16) of word l/4) holding the run's tags as 16-bit
  /// lanes. Two copies differing only in their pad sentinel are stored —
  /// tag_sig_a pads unused lanes with 0xffff, tag_sig_b with 0xfffe — so
  /// intersecting an a-form against a b-form can never match a pad against
  /// a pad or a real tag (tags are capped at kTagSigMaxTag). The SIMD
  /// batch kernel turns a run merge into 8x8 all-pairs 16-bit compares of
  /// the two forms. Runs with more than kTagSigLanes actions or an
  /// oversized tag store all-zero words (impossible for a real signature:
  /// its pads are non-zero and a full run's 8 distinct tags can't all be
  /// zero), which tells the kernel to merge the action runs instead.
  std::span<const std::uint64_t> tag_sig_a;
  std::span<const std::uint64_t> tag_sig_b;
};

/// Owning builder-side form of a ScoreIndex. Profile packs the arrays into
/// one contiguous (optionally arena-backed) block at snapshot construction
/// and keeps only the view.
struct ScoreIndexData {
  BlockBitmap items;
  AlignedVector<std::uint32_t> item_rank;
  AlignedVector<std::uint32_t> item_counts;
  AlignedVector<std::uint32_t> item_offsets;
  AlignedVector<std::uint64_t> tag_sig_a;
  AlignedVector<std::uint64_t> tag_sig_b;

  /// View over this owning storage (valid while *this is alive and
  /// unmodified).
  ScoreIndex View() const;

  /// Builds the index of a sorted unique action vector from scratch.
  static ScoreIndexData Build(std::span<const ActionKey> sorted_actions);

  /// Incremental fold: the index of base ∪ delta, computed from the base
  /// snapshot's existing index plus the (sorted unique, disjoint-from-base)
  /// delta actions, without re-scanning untouched items. `merged_actions`
  /// must be the sorted unique union the new snapshot stores — offsets and
  /// signatures of touched items are read from it. Bit-identical to
  /// Build(merged_actions).
  static ScoreIndexData Fold(const ScoreIndex& base,
                             std::span<const ActionKey> delta,
                             std::span<const ActionKey> merged_actions);
};

/// True when the two profiles share at least one item (exact; the Bloom
/// digest gives the probabilistic version). Early-exits on the first
/// matching block.
bool KernelSharesItem(const Profile& a, const Profile& b);

/// PairSimilarity of one pair through the kernel — exact, equal to the
/// scalar ComputePairSimilarity in profile.cc. Oriented to (a, b):
/// a_actions_on_common counts a's actions.
PairSimilarity KernelPairSimilarity(const Profile& a, const Profile& b);

/// The batched kernel: scores `base` against `n` candidate profiles in one
/// sweep. Base's item blocks are loaded into a small open-addressing hash
/// once, then every candidate runs O(1) probes per item block — the
/// amortization that makes batching pay. Results are oriented to
/// (base, candidate): a_actions_on_common counts base's actions. This is
/// what the plan phase calls once per node per cycle.
void KernelPairSimilarityBatch(const Profile& base,
                               const Profile* const* candidates,
                               std::size_t n, PairSimilarity* out);

}  // namespace p3q

#endif  // P3Q_PROFILE_SCORE_KERNEL_H_
