#include "profile/profile.h"

#include <algorithm>
#include <cstring>

#include "bloom/bloom_filter.h"

namespace p3q {
namespace {

/// Packed-block layout granularity: every array starts on a 64-byte (8
/// u64-word) boundary, which the AVX2 lane's aligned tag-signature loads
/// (TagSigMerge) rely on.
constexpr std::size_t kPadWords = 8;

std::size_t PadWords(std::size_t words) {
  return (words + kPadWords - 1) & ~(kPadWords - 1);
}

std::size_t WordsOfU32(std::size_t n) { return (n + 1) / 2; }

}  // namespace

Profile::Profile(UserId owner, std::vector<ActionKey> actions,
                 std::uint32_t version, std::size_t digest_bits,
                 std::shared_ptr<SlabArena> arena)
    : owner_(owner), version_(version), num_items_(0) {
  std::sort(actions.begin(), actions.end());
  actions.erase(std::unique(actions.begin(), actions.end()), actions.end());
  BloomFilter digest(digest_bits);
  ItemId last = kInvalidItem;
  for (ActionKey a : actions) {
    const ItemId item = ActionItem(a);
    if (item != last) {
      ++num_items_;
      digest.Insert(item);
      last = item;
    }
  }
  digest_fpp_ = digest.EstimatedFpp();
  digest_bytes_ = digest.SizeBytes();
  const ScoreIndexData index = ScoreIndexData::Build(actions);
  Pack(actions, index, std::move(arena));
}

Profile::~Profile() {
  if (arena_ != nullptr) arena_->Release(block_);
}

Profile::Profile(Profile&& other) noexcept
    : owner_(other.owner_), version_(other.version_),
      num_items_(other.num_items_), digest_fpp_(other.digest_fpp_),
      digest_bytes_(other.digest_bytes_), arena_(std::move(other.arena_)),
      block_(other.block_), heap_(std::move(other.heap_)),
      actions_(other.actions_), index_(other.index_) {
  other.block_ = nullptr;
  other.actions_ = {};
  other.index_ = ScoreIndex{};
}

void Profile::Pack(std::span<const ActionKey> sorted_actions,
                   const ScoreIndexData& index,
                   std::shared_ptr<SlabArena> arena) {
  // Array order inside the block: actions, item bitmap (blocks, words),
  // item_rank, item_counts, item_offsets, tag_sig_a, tag_sig_b — each
  // 64-byte aligned.
  enum {
    kActions,
    kItemBlocks,
    kItemWords,
    kRank,
    kCounts,
    kOffsets,
    kSigA,
    kSigB,
    kNumArrays
  };
  std::size_t words[kNumArrays] = {
      sorted_actions.size(),
      index.items.blocks.size(),
      index.items.words.size(),
      WordsOfU32(index.item_rank.size()),
      WordsOfU32(index.item_counts.size()),
      WordsOfU32(index.item_offsets.size()),
      index.tag_sig_a.size(),
      index.tag_sig_b.size(),
  };
  std::size_t off[kNumArrays];
  std::size_t total = 0;
  for (int i = 0; i < kNumArrays; ++i) {
    off[i] = total;
    total += PadWords(words[i]);
  }

  std::uint64_t* base;
  if (arena != nullptr) {
    block_ = arena->Allocate(total * sizeof(std::uint64_t));
    arena_ = std::move(arena);
    base = static_cast<std::uint64_t*>(block_);
  } else {
    heap_.resize(total);
    base = heap_.data();
  }

  auto copy64 = [&](int slot, const std::uint64_t* src, std::size_t n) {
    if (n != 0) std::memcpy(base + off[slot], src, n * sizeof(std::uint64_t));
  };
  auto copy32 = [&](int slot, const std::uint32_t* src, std::size_t n) {
    if (n != 0) std::memcpy(base + off[slot], src, n * sizeof(std::uint32_t));
  };
  copy64(kActions, sorted_actions.data(), sorted_actions.size());
  copy64(kItemBlocks, index.items.blocks.data(), index.items.blocks.size());
  copy64(kItemWords, index.items.words.data(), index.items.words.size());
  copy32(kRank, index.item_rank.data(), index.item_rank.size());
  copy32(kCounts, index.item_counts.data(), index.item_counts.size());
  copy32(kOffsets, index.item_offsets.data(), index.item_offsets.size());
  copy64(kSigA, index.tag_sig_a.data(), index.tag_sig_a.size());
  copy64(kSigB, index.tag_sig_b.data(), index.tag_sig_b.size());

  actions_ = {reinterpret_cast<const ActionKey*>(base + off[kActions]),
              sorted_actions.size()};
  index_.items =
      BitmapView({base + off[kItemBlocks], index.items.blocks.size()},
                 {base + off[kItemWords], index.items.words.size()});
  index_.item_rank = {reinterpret_cast<const std::uint32_t*>(base + off[kRank]),
                      index.item_rank.size()};
  index_.item_counts = {
      reinterpret_cast<const std::uint32_t*>(base + off[kCounts]),
      index.item_counts.size()};
  index_.item_offsets = {
      reinterpret_cast<const std::uint32_t*>(base + off[kOffsets]),
      index.item_offsets.size()};
  index_.tag_sig_a = {base + off[kSigA], index.tag_sig_a.size()};
  index_.tag_sig_b = {base + off[kSigB], index.tag_sig_b.size()};
}

bool Profile::Contains(ItemId item, TagId tag) const {
  return std::binary_search(actions_.begin(), actions_.end(),
                            MakeAction(item, tag));
}

bool Profile::ContainsItem(ItemId item) const {
  const ActionKey lo = MakeAction(item, 0);
  auto it = std::lower_bound(actions_.begin(), actions_.end(), lo);
  return it != actions_.end() && ActionItem(*it) == item;
}

std::size_t CountCommonActions(std::span<const ActionKey> a,
                               std::span<const ActionKey> b) {
  std::size_t count = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

std::vector<ItemId> Profile::CommonItems(const Profile& other) const {
  std::vector<ItemId> common;
  std::size_t i = 0, j = 0;
  const auto& a = actions_;
  const auto& b = other.actions_;
  while (i < a.size() && j < b.size()) {
    const ItemId ia = ActionItem(a[i]);
    const ItemId ib = ActionItem(b[j]);
    if (ia < ib) {
      ++i;
    } else if (ib < ia) {
      ++j;
    } else {
      common.push_back(ia);
      // Skip the rest of this item's run on both sides.
      while (i < a.size() && ActionItem(a[i]) == ia) ++i;
      while (j < b.size() && ActionItem(b[j]) == ia) ++j;
    }
  }
  return common;
}

bool Profile::SharesItemWith(const Profile& other) const {
  return KernelSharesItem(*this, other);
}

std::vector<ActionKey> Profile::ActionsOnItems(
    const std::vector<ItemId>& items) const {
  std::vector<ActionKey> out;
  for (ItemId item : items) {
    const ActionKey lo = MakeAction(item, 0);
    auto it = std::lower_bound(actions_.begin(), actions_.end(), lo);
    while (it != actions_.end() && ActionItem(*it) == item) {
      out.push_back(*it);
      ++it;
    }
  }
  return out;
}

PairSimilarity ComputePairSimilarity(const Profile& a, const Profile& b) {
  PairSimilarity sim;
  const auto& va = a.actions();
  const auto& vb = b.actions();
  std::size_t i = 0, j = 0;
  while (i < va.size() && j < vb.size()) {
    const ItemId ia = ActionItem(va[i]);
    const ItemId ib = ActionItem(vb[j]);
    if (ia < ib) {
      ++i;
    } else if (ib < ia) {
      ++j;
    } else {
      // Same item on both sides: walk the two runs, counting exact action
      // matches and the run lengths.
      ++sim.common_items;
      const std::size_t ri = i;
      const std::size_t rj = j;
      while (i < va.size() && ActionItem(va[i]) == ia) ++i;
      while (j < vb.size() && ActionItem(vb[j]) == ia) ++j;
      sim.a_actions_on_common += static_cast<std::uint32_t>(i - ri);
      sim.b_actions_on_common += static_cast<std::uint32_t>(j - rj);
      std::size_t x = ri, y = rj;
      while (x < i && y < j) {
        if (va[x] < vb[y]) {
          ++x;
        } else if (vb[y] < va[x]) {
          ++y;
        } else {
          ++sim.score;
          ++x;
          ++y;
        }
      }
    }
  }
  return sim;
}

QueryTags::QueryTags(std::span<const TagId> sorted_tags) : tags_(sorted_tags) {
  for (TagId tag : sorted_tags) mask_[(tag >> 6) & 3] |= 1ull << (tag & 63);
}

void Profile::ScoreQuery(const QueryTags& query,
                         std::vector<ItemScore>* out) const {
  // Actions are sorted by (item, tag), so one item's hits are adjacent.
  ItemId current = kInvalidItem;
  std::uint32_t count = 0;
  for (ActionKey a : actions_) {
    if (!query.Contains(ActionTag(a))) continue;
    const ItemId item = ActionItem(a);
    if (item != current) {
      if (count > 0) out->emplace_back(current, count);
      current = item;
      count = 0;
    }
    ++count;
  }
  if (count > 0) out->emplace_back(current, count);
}

std::vector<ItemScore> RankQueryScores(std::span<const Profile* const> profiles,
                                       const QueryTags& query,
                                       std::vector<ItemScore>* scratch) {
  std::vector<ItemScore>& hits = *scratch;
  hits.clear();
  for (const Profile* profile : profiles) profile->ScoreQuery(query, &hits);
  // Sum each item's hits in place: after the sort they are adjacent.
  std::sort(hits.begin(), hits.end(),
            [](const ItemScore& a, const ItemScore& b) {
              return a.first < b.first;
            });
  std::size_t n = 0;
  for (const ItemScore& hit : hits) {
    if (n > 0 && hits[n - 1].first == hit.first) {
      hits[n - 1].second += hit.second;
    } else {
      hits[n++] = hit;
    }
  }
  std::vector<ItemScore> ranked(hits.begin(),
                                hits.begin() + static_cast<std::ptrdiff_t>(n));
  std::sort(ranked.begin(), ranked.end(),
            [](const ItemScore& a, const ItemScore& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  return ranked;
}

}  // namespace p3q
