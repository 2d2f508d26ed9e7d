// Tagging profiles (Section 2.1 of the paper).
//
// Profile(u) = { Tagged_u(i, t) } — the set of a user's tagging actions. The
// similarity score between two users is the number of common actions:
//   Score_a(b) = |Profile(a) ∩ Profile(b)|
// and the per-item relevance of a profile for a query Q = {t1..tn} is
//   Score_{u,Q}(i) = |{ t ∈ Q : Tagged_u(i, t) }|.
//
// Profiles are immutable snapshots: updating a user's profile creates a new
// snapshot with a bumped version. Replicas held by other users are
// shared_ptr's to snapshots, so a replica is stale exactly when its version
// is older than the owner's current version — which is how the dynamism
// experiments (Figures 7, 9, 10, Table 2) measure freshness.
//
// Storage: a snapshot's sorted actions and its whole ScoreIndex live in ONE
// contiguous 64-byte-aligned block — either a SlabArena block (the
// million-user path: ProfileStore hands every snapshot its shard's arena)
// or a single heap allocation when no arena is given (tests, standalone
// profiles). The snapshot keeps its arena alive through a shared_ptr, so
// replicas can outlive the store that allocated them.
#ifndef P3Q_PROFILE_PROFILE_H_
#define P3Q_PROFILE_PROFILE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/aligned.h"
#include "common/arena.h"
#include "common/types.h"
#include "profile/score_kernel.h"

namespace p3q {

/// An immutable snapshot of one user's tagging profile.
class Profile {
 public:
  /// Builds a snapshot from (possibly unsorted, possibly duplicated) packed
  /// actions. Actions are sorted and deduplicated. When `arena` is non-null
  /// the packed snapshot block is allocated from it.
  Profile(UserId owner, std::vector<ActionKey> actions, std::uint32_t version,
          std::size_t digest_bits = kDefaultDigestBits,
          std::shared_ptr<SlabArena> arena = nullptr);

  /// Incremental snapshot: `base`'s actions plus `new_actions` (possibly
  /// unsorted/duplicated/overlapping the base), version bumped by one. The
  /// Bloom digest is extended by OR (order-independent, so bit-identical to
  /// a rebuild) and the ScoreIndex is *folded* from the base's index
  /// (ScoreIndexData::Fold) instead of rebuilt — bit-identical to the
  /// from-scratch constructor above on the merged action set.
  Profile(const Profile& base, const std::vector<ActionKey>& new_actions,
          std::shared_ptr<SlabArena> arena = nullptr);

  ~Profile();

  Profile(const Profile&) = delete;
  Profile& operator=(const Profile&) = delete;
  Profile(Profile&& other) noexcept;
  Profile& operator=(Profile&& other) = delete;

  UserId owner() const { return owner_; }
  std::uint32_t version() const { return version_; }

  /// Sorted unique tagging actions (a view into the packed snapshot block).
  std::span<const ActionKey> actions() const { return actions_; }

  /// The paper's "length of profile": number of tagging actions.
  std::size_t Length() const { return actions_.size(); }

  /// Number of distinct items tagged.
  std::size_t NumItems() const { return num_items_; }

  /// Bloom digest over the profile's items (what gossip messages carry).
  const BloomFilter& digest() const { return digest_; }

  /// digest().EstimatedFpp(), computed once at construction: the digest
  /// never changes after that, and the Bloom screens read it per proposal.
  double DigestFpp() const { return digest_fpp_; }

  /// Block-bitmap scoring index (profile/score_kernel.h), built once at
  /// snapshot construction; what the batched similarity kernels run on.
  const ScoreIndex& index() const { return index_; }

  /// Bytes of the packed snapshot block (actions + index), as allocated.
  std::size_t PackedBytes() const { return packed_bytes_; }

  /// True when the action Tagged(item, tag) is present.
  bool Contains(ItemId item, TagId tag) const;

  /// True when at least one action concerns the item.
  bool ContainsItem(ItemId item) const;

  /// Items present in both profiles (sorted ascending).
  std::vector<ItemId> CommonItems(const Profile& other) const;

  /// True when the two profiles share at least one item (exact check; the
  /// digest gives the probabilistic version). Runs on the item-bitmap
  /// kernel with an early exit on the first matching block.
  bool SharesItemWith(const Profile& other) const;

  /// All actions of this profile whose item belongs to `items` (sorted input
  /// required). This is step 2 of Algorithm 1: "require her tagging actions
  /// for the common items".
  std::vector<ActionKey> ActionsOnItems(const std::vector<ItemId>& items) const;

  /// Per-item query scores Score_{u,Q}(i) for every item with positive score,
  /// as (item, score) pairs sorted by item id ascending.
  std::vector<std::pair<ItemId, std::uint32_t>> ScoreQuery(
      const std::vector<TagId>& sorted_query_tags) const;

  /// Wire cost of shipping the full profile (36 B per action, Section 3.3).
  std::size_t WireBytes() const {
    return actions_.size() * kBytesPerTaggingAction;
  }

 private:
  /// Copies the sorted actions and the built index into one packed block
  /// (arena or heap) and points actions_/index_ at it.
  void Pack(std::span<const ActionKey> sorted_actions,
            const ScoreIndexData& index, std::shared_ptr<SlabArena> arena);

  UserId owner_;
  std::uint32_t version_;
  std::size_t num_items_;
  BloomFilter digest_;
  double digest_fpp_ = 0.0;

  /// Packed storage: arena block when arena_ is set, heap_ otherwise.
  std::shared_ptr<SlabArena> arena_;
  void* block_ = nullptr;
  AlignedVector<std::uint64_t> heap_;
  std::size_t packed_bytes_ = 0;

  std::span<const ActionKey> actions_;
  ScoreIndex index_;
};

/// Shared handle to an immutable profile snapshot. Copying a replica is one
/// refcount increment regardless of profile size.
using ProfilePtr = std::shared_ptr<const Profile>;

/// Counts the common actions of two sorted unique action sequences with a
/// scalar element-at-a-time merge — the reference the pair kernel's score
/// (profile/score_kernel.h) is differential-tested against.
std::size_t CountCommonActions(std::span<const ActionKey> a,
                               std::span<const ActionKey> b);

/// Computes PairSimilarity (profile/score_kernel.h) for two profiles with
/// the scalar reference merge. Production scoring goes through
/// KernelPairSimilarity / KernelPairSimilarityBatch instead; this stays as
/// the independent implementation the differential tests compare to.
PairSimilarity ComputePairSimilarity(const Profile& a, const Profile& b);

}  // namespace p3q

#endif  // P3Q_PROFILE_PROFILE_H_
