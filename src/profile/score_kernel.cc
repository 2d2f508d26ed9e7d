#include "profile/score_kernel.h"

#include <algorithm>
#include <bit>

#include "profile/profile.h"
#include "profile/score_kernel_internal.h"
#include "profile/score_kernel_simd.h"

namespace p3q {
namespace {

using kernel_detail::AccumulateBlock;
using kernel_detail::GallopTo;

/// Open-addressing hash of the base profile's item blocks, built once per
/// batch: block id -> index into the base's item bitmap. Power-of-two
/// sized, linear probing, ~2x load headroom; lives on the batch's stack
/// frame, so it stays L1-hot across every candidate.
class BlockHash {
 public:
  explicit BlockHash(const BitmapView& bitmap) {
    std::size_t capacity = 16;
    while (capacity < bitmap.size() * 2) capacity <<= 1;
    mask_ = capacity - 1;
    slots_.assign(capacity, kEmpty);
    for (std::size_t i = 0; i < bitmap.size(); ++i) {
      std::size_t slot = Hash(bitmap.blocks[i]);
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask_;
      slots_[slot] = (bitmap.blocks[i] << 20) | i;
    }
  }

  /// Index of `block` in the base bitmap, or kNotFound.
  std::size_t Find(std::uint64_t block) const {
    std::size_t slot = Hash(block);
    while (true) {
      const std::uint64_t entry = slots_[slot];
      if (entry == kEmpty) return kNotFound;
      if ((entry >> 20) == block) return entry & 0xfffff;
      slot = (slot + 1) & mask_;
    }
  }

  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  std::size_t Hash(std::uint64_t block) const {
    return static_cast<std::size_t>(block * 0x9e3779b97f4a7c15ULL >> 40) &
           mask_;
  }

  std::size_t mask_ = 0;
  /// block id << 20 | index. Item blocks are ItemId >> 6 (at most 26 bits),
  /// so 44 id bits and 20 index bits (1M blocks = 64M distinct items per
  /// profile) hold any real profile with plenty of headroom.
  std::vector<std::uint64_t> slots_;
};

/// Packs one item run's tags into the two signature forms, or leaves the
/// four words zero when the run is unpackable. Shared by Build and Fold so
/// both produce bit-identical signatures by construction.
void PackTagSignature(std::span<const ActionKey> actions, std::uint32_t begin,
                      std::uint32_t end, std::uint64_t* sig_a_out,
                      std::uint64_t* sig_b_out) {
  sig_a_out[0] = sig_a_out[1] = 0;
  sig_b_out[0] = sig_b_out[1] = 0;
  if (end - begin > kTagSigLanes) return;
  std::uint64_t sig_a[2] = {~std::uint64_t{0}, ~std::uint64_t{0}};
  std::uint64_t sig_b[2] = {0xfffefffefffefffeULL, 0xfffefffefffefffeULL};
  for (std::uint32_t o = begin; o < end; ++o) {
    const TagId tag = ActionTag(actions[o]);
    if (tag > kTagSigMaxTag) return;
    const std::uint32_t lane = o - begin;
    const std::uint64_t clear = ~(std::uint64_t{0xffff} << (16 * (lane & 3)));
    const std::uint64_t set = static_cast<std::uint64_t>(tag)
                              << (16 * (lane & 3));
    sig_a[lane >> 2] = (sig_a[lane >> 2] & clear) | set;
    sig_b[lane >> 2] = (sig_b[lane >> 2] & clear) | set;
  }
  sig_a_out[0] = sig_a[0];
  sig_a_out[1] = sig_a[1];
  sig_b_out[0] = sig_b[0];
  sig_b_out[1] = sig_b[1];
}

/// Merges an existing block bitmap with the bitmap of additional sorted
/// unique keys — the union, with words of shared blocks OR-ed. Equal to
/// BlockBitmap::Build over the merged key set because a bitmap is a pure
/// function of its key set.
BlockBitmap FoldBitmap(const BitmapView& base,
                       const std::vector<std::uint64_t>& delta_keys) {
  const BlockBitmap delta = BlockBitmap::Build(delta_keys);
  BlockBitmap out;
  out.blocks.reserve(base.size() + delta.size());
  out.words.reserve(base.size() + delta.size());
  std::size_t i = 0, j = 0;
  while (i < base.size() || j < delta.size()) {
    if (j >= delta.size() ||
        (i < base.size() && base.blocks[i] < delta.blocks[j])) {
      out.blocks.push_back(base.blocks[i]);
      out.words.push_back(base.words[i]);
      ++i;
    } else if (i >= base.size() || delta.blocks[j] < base.blocks[i]) {
      out.blocks.push_back(delta.blocks[j]);
      out.words.push_back(delta.words[j]);
      ++j;
    } else {
      out.blocks.push_back(base.blocks[i]);
      out.words.push_back(base.words[i] | delta.words[j]);
      ++i;
      ++j;
    }
  }
  return out;
}

/// Enumerates the distinct items of an item bitmap in ascending order —
/// the select side of the rank-select pairing.
class ItemCursor {
 public:
  explicit ItemCursor(const BitmapView& bitmap) : bitmap_(bitmap) {
    Advance();
  }

  bool Done() const { return done_; }
  std::uint64_t Item() const { return item_; }
  std::size_t Index() const { return index_; }

  void Next() {
    ++index_;
    Advance();
  }

 private:
  void Advance() {
    while (block_ < bitmap_.size() && word_ == 0) {
      word_ = bitmap_.words[block_];
      if (word_ == 0) ++block_;  // never happens for well-formed bitmaps
    }
    if (block_ >= bitmap_.size()) {
      done_ = true;
      return;
    }
    const int bit = std::countr_zero(word_);
    word_ &= word_ - 1;
    item_ = bitmap_.blocks[block_] * 64 + static_cast<std::uint64_t>(bit);
    if (word_ == 0) ++block_;
  }

  BitmapView bitmap_;
  std::size_t block_ = 0;
  std::uint64_t word_ = 0;
  std::uint64_t item_ = 0;
  std::size_t index_ = 0;
  bool done_ = false;
};

}  // namespace

BlockBitmap BlockBitmap::Build(std::span<const std::uint64_t> sorted_keys) {
  BlockBitmap bitmap;
  for (const std::uint64_t key : sorted_keys) {
    const std::uint64_t block = key >> 6;
    if (bitmap.blocks.empty() || bitmap.blocks.back() != block) {
      bitmap.blocks.push_back(block);
      bitmap.words.push_back(0);
    }
    bitmap.words.back() |= std::uint64_t{1} << (key & 63);
  }
  return bitmap;
}

ScoreIndex ScoreIndexData::View() const {
  ScoreIndex view;
  view.items = BitmapView(items);
  view.item_rank = {item_rank.data(), item_rank.size()};
  view.item_counts = {item_counts.data(), item_counts.size()};
  view.item_offsets = {item_offsets.data(), item_offsets.size()};
  view.tag_sig_a = {tag_sig_a.data(), tag_sig_a.size()};
  view.tag_sig_b = {tag_sig_b.data(), tag_sig_b.size()};
  return view;
}

ScoreIndexData ScoreIndexData::Build(std::span<const ActionKey> sorted_actions) {
  ScoreIndexData index;
  std::vector<std::uint64_t> items;
  for (std::size_t i = 0; i < sorted_actions.size(); ++i) {
    const ItemId item = ActionItem(sorted_actions[i]);
    if (items.empty() || items.back() != item) {
      items.push_back(item);
      index.item_counts.push_back(0);
      index.item_offsets.push_back(static_cast<std::uint32_t>(i));
    }
    ++index.item_counts.back();
  }
  index.item_offsets.push_back(
      static_cast<std::uint32_t>(sorted_actions.size()));
  index.items = BlockBitmap::Build(items);
  index.item_rank.reserve(index.items.size());
  std::uint32_t rank = 0;
  for (const std::uint64_t word : index.items.words) {
    index.item_rank.push_back(rank);
    rank += static_cast<std::uint32_t>(std::popcount(word));
  }
  const std::size_t item_count = index.item_counts.size();
  index.tag_sig_a.assign(item_count * 2, 0);
  index.tag_sig_b.assign(item_count * 2, 0);
  for (std::size_t it = 0; it < item_count; ++it) {
    PackTagSignature(sorted_actions, index.item_offsets[it],
                     index.item_offsets[it + 1], &index.tag_sig_a[it * 2],
                     &index.tag_sig_b[it * 2]);
  }
  return index;
}

ScoreIndexData ScoreIndexData::Fold(const ScoreIndex& base,
                                    std::span<const ActionKey> delta,
                                    std::span<const ActionKey> merged_actions) {
  ScoreIndexData out;

  // Distinct delta items with their delta action counts.
  std::vector<std::uint64_t> delta_items;
  std::vector<std::uint32_t> delta_counts;
  for (const ActionKey key : delta) {
    const std::uint64_t item = ActionItem(key);
    if (delta_items.empty() || delta_items.back() != item) {
      delta_items.push_back(item);
      delta_counts.push_back(0);
    }
    ++delta_counts.back();
  }

  out.items = FoldBitmap(base.items, delta_items);

  out.item_rank.reserve(out.items.size());
  std::uint32_t rank = 0;
  for (const std::uint64_t word : out.items.words) {
    out.item_rank.push_back(rank);
    rank += static_cast<std::uint32_t>(std::popcount(word));
  }

  // Merge the base's distinct-item stream with the delta's: untouched items
  // keep their base count, touched items add their delta count, new items
  // are delta-only. Offsets are the running prefix sum, exactly as Build
  // accumulates them.
  const std::size_t total_items = static_cast<std::size_t>(rank);
  out.item_counts.reserve(total_items);
  out.item_offsets.reserve(total_items + 1);
  out.tag_sig_a.assign(total_items * 2, 0);
  out.tag_sig_b.assign(total_items * 2, 0);

  ItemCursor base_cursor(base.items);
  std::size_t di = 0;
  std::uint32_t offset = 0;
  std::size_t ui = 0;
  while (!base_cursor.Done() || di < delta_items.size()) {
    const bool take_base =
        !base_cursor.Done() &&
        (di >= delta_items.size() || base_cursor.Item() <= delta_items[di]);
    const bool take_delta =
        di < delta_items.size() &&
        (base_cursor.Done() || delta_items[di] <= base_cursor.Item());
    std::uint32_t count = 0;
    if (take_base) count += base.item_counts[base_cursor.Index()];
    if (take_delta) count += delta_counts[di];
    out.item_offsets.push_back(offset);
    out.item_counts.push_back(count);
    if (take_base && !take_delta) {
      // Untouched item: its run is unchanged, so its signature is too.
      const std::size_t bi = base_cursor.Index();
      out.tag_sig_a[ui * 2] = base.tag_sig_a[bi * 2];
      out.tag_sig_a[ui * 2 + 1] = base.tag_sig_a[bi * 2 + 1];
      out.tag_sig_b[ui * 2] = base.tag_sig_b[bi * 2];
      out.tag_sig_b[ui * 2 + 1] = base.tag_sig_b[bi * 2 + 1];
    } else {
      // Touched or new item: repack from the merged run.
      PackTagSignature(merged_actions, offset, offset + count,
                       &out.tag_sig_a[ui * 2], &out.tag_sig_b[ui * 2]);
    }
    offset += count;
    ++ui;
    if (take_base) base_cursor.Next();
    if (take_delta) ++di;
  }
  out.item_offsets.push_back(static_cast<std::uint32_t>(merged_actions.size()));
  return out;
}

bool KernelSharesItem(const Profile& a, const Profile& b) {
  const BitmapView& x = a.index().items;
  const BitmapView& y = b.index().items;
  const BitmapView& small = x.size() <= y.size() ? x : y;
  const BitmapView& large = x.size() <= y.size() ? y : x;
  if (small.size() * kGallopSkewRatio < large.size()) {
    std::size_t j = 0;
    for (std::size_t i = 0; i < small.size() && j < large.size(); ++i) {
      j = GallopTo(large.blocks.data(), large.size(), j, small.blocks[i]);
      if (j < large.size() && large.blocks[j] == small.blocks[i] &&
          (small.words[i] & large.words[j]) != 0) {
        return true;
      }
    }
    return false;
  }
  std::size_t i = 0, j = 0;
  while (i < small.size() && j < large.size()) {
    const std::uint64_t bx = small.blocks[i];
    const std::uint64_t by = large.blocks[j];
    if (bx == by) {
      if ((small.words[i] & large.words[j]) != 0) return true;
      ++i;
      ++j;
    } else {
      i += bx < by;
      j += by < bx;
    }
  }
  return false;
}

PairSimilarity KernelPairSimilarity(const Profile& a, const Profile& b) {
  PairSimilarity sim;
  const ScoreIndex& ia = a.index();
  const ScoreIndex& ib = b.index();
  const std::size_t na = ia.items.size();
  const std::size_t nb = ib.items.size();

  if (std::min(na, nb) * kGallopSkewRatio < std::max(na, nb)) {
    // Galloping fallback: walk the smaller side's item blocks, locating
    // each in the larger side.
    const bool a_small = na <= nb;
    const ScoreIndex& s = a_small ? ia : ib;
    const ScoreIndex& l = a_small ? ib : ia;
    const std::span<const ActionKey> vs = a_small ? a.actions() : b.actions();
    const std::span<const ActionKey> vl = a_small ? b.actions() : a.actions();
    PairSimilarity oriented;  // oriented to (small, large)
    std::size_t j = 0;
    for (std::size_t i = 0; i < s.items.size() && j < l.items.size(); ++i) {
      j = GallopTo(l.items.blocks.data(), l.items.size(), j,
                   s.items.blocks[i]);
      if (j < l.items.size() && l.items.blocks[j] == s.items.blocks[i]) {
        AccumulateBlock(s, vs, i, l, vl, j, &oriented);
      }
    }
    sim = oriented;
    if (!a_small) {
      std::swap(sim.a_actions_on_common, sim.b_actions_on_common);
    }
    return sim;
  }

  std::size_t i = 0, j = 0;
  while (i < na && j < nb) {
    const std::uint64_t x = ia.items.blocks[i];
    const std::uint64_t y = ib.items.blocks[j];
    if (x == y) {
      AccumulateBlock(ia, a.actions(), i, ib, b.actions(), j, &sim);
      ++i;
      ++j;
    } else {
      i += x < y;
      j += y < x;
    }
  }
  return sim;
}

void KernelPairSimilarityBatch(const Profile& base,
                               const Profile* const* candidates,
                               std::size_t n, PairSimilarity* out) {
  // Below a handful of candidates the per-batch setup (dense table or hash)
  // costs more than it saves; past 2^20 base item blocks the hash's packed
  // index field would overflow into the block bits (a >64M-distinct-item
  // profile — far beyond any real trace). Both take the setup-free pair
  // kernel instead.
  if (n < kMinHashBatch || base.index().items.size() > 0xfffff) {
    for (std::size_t c = 0; c < n; ++c) {
      out[c] = KernelPairSimilarity(base, *candidates[c]);
    }
    return;
  }
#ifdef P3Q_SCORE_KERNEL_SIMD_X86
  // The AVX2 lane sweeps a dense gather table of the base's item blocks; it
  // declines bases whose block span is too sparse for it, in which case the
  // portable hash path below runs.
  if (ActiveSimdLane() == SimdLane::kAvx2 &&
      Avx2PairSimilarityBatch(base, candidates, n, out)) {
    return;
  }
#endif
  const ScoreIndex& ib = base.index();
  const BlockHash hash(ib.items);
  for (std::size_t c = 0; c < n; ++c) {
    const Profile& cand = *candidates[c];
    const ScoreIndex& ic = cand.index();
    // A candidate far larger than the base would pay O(candidate blocks)
    // probes for nothing; the pair kernel's galloping path handles it.
    if (ic.items.size() > ib.items.size() * kGallopSkewRatio) {
      out[c] = KernelPairSimilarity(base, cand);
      continue;
    }
    PairSimilarity sim;  // oriented to (candidate, base) while probing
    for (std::size_t i = 0; i < ic.items.size(); ++i) {
      const std::size_t j = hash.Find(ic.items.blocks[i]);
      if (j == BlockHash::kNotFound) continue;
      AccumulateBlock(ic, cand.actions(), i, ib, base.actions(), j, &sim);
    }
    std::swap(sim.a_actions_on_common, sim.b_actions_on_common);
    out[c] = sim;
  }
}

}  // namespace p3q
