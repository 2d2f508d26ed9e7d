// Tagging profiles (Section 2.1 of the paper).
//
// Profile(u) = { Tagged_u(i, t) } — the set of a user's tagging actions. The
// similarity score between two users is the number of common actions:
//   Score_a(b) = |Profile(a) ∩ Profile(b)|
// and the per-item relevance of a profile for a query Q = {t1..tn} is
//   Score_{u,Q}(i) = |{ t ∈ Q : Tagged_u(i, t) }|.
//
// Query scoring (Algorithm 3's per-profile share, summed by the eager
// mode's partial results and the centralized reference): QueryTags screens
// each action's tag against a 256-bit mask of the query's tags, so a profile
// that holds none of them (most profiles a query meets) costs one AND per
// action, and only mask hits reach the exact search. Profile::ScoreQuery
// appends a profile's hits to a buffer the caller owns, and RankQueryScores
// is the one merge: it sorts the appended hits by item, sums them, and
// ranks the sums into a list of exact capacity (the querier's NRA keeps
// every list for the query's life).
// tests/query_path_oracle_test.cc keeps the per-action binary-search scan
// and the hash-map merge this replaced as its oracles.
//
// Profiles are immutable snapshots: updating a user's profile creates a new
// snapshot with a bumped version. Replicas held by other users are
// shared_ptr's to snapshots, so a replica is stale exactly when its version
// is older than the owner's current version — which is how the dynamism
// experiments (Figures 7, 9, 10, Table 2) measure freshness. An update
// builds its snapshot with the one constructor below, from the old actions
// plus the new ones (ProfileStore::ApplyUpdate).
//
// Storage: a snapshot's sorted actions and its whole ScoreIndex live in ONE
// contiguous 64-byte-aligned block — either a SlabArena block (the
// million-user path: ProfileStore hands every snapshot its shard's arena)
// or a single heap allocation when no arena is given (tests, standalone
// profiles). The snapshot keeps its arena alive through a shared_ptr, so
// replicas can outlive the store that allocated them. Of the Bloom digest
// (Section 2.1) a snapshot keeps only what the simulation reads: its
// false-positive rate and its wire size (gossip/view.h). The filter's bits
// are built at construction and dropped.
#ifndef P3Q_PROFILE_PROFILE_H_
#define P3Q_PROFILE_PROFILE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/arena.h"
#include "common/types.h"
#include "profile/score_kernel.h"

namespace p3q {

/// A query's tags with a 256-bit screen: bit (tag mod 256) is set for every
/// query tag, so a tag whose bit is clear is not in the query. Borrows the
/// tags, which must outlive it.
class QueryTags {
 public:
  /// `sorted_tags` ascending, as QuerySpec keeps them (the exact search is
  /// a binary search).
  explicit QueryTags(std::span<const TagId> sorted_tags);

  /// True when `tag` is one of the query's tags.
  bool Contains(TagId tag) const {
    return ((mask_[(tag >> 6) & 3] >> (tag & 63)) & 1) != 0 &&
           std::binary_search(tags_.begin(), tags_.end(), tag);
  }

 private:
  std::span<const TagId> tags_;
  std::array<std::uint64_t, 4> mask_{};
};

/// An immutable snapshot of one user's tagging profile.
class Profile {
 public:
  /// Builds a snapshot from (possibly unsorted, possibly duplicated) packed
  /// actions. Actions are sorted and deduplicated; `digest_bits` sizes the
  /// Bloom digest of their items. When `arena` is non-null the packed
  /// snapshot block is allocated from it.
  Profile(UserId owner, std::vector<ActionKey> actions, std::uint32_t version,
          std::size_t digest_bits = kDefaultDigestBits,
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

  /// Estimated false-positive rate of the Bloom digest over the profile's
  /// items (MakeItemDigest(actions, digest_bits).EstimatedFpp()), computed
  /// at construction; the Bloom screens read it per proposal.
  double DigestFpp() const { return digest_fpp_; }

  /// Wire size of that digest in bytes (what gossip messages carry).
  std::size_t DigestBytes() const { return digest_bytes_; }

  /// Block-bitmap scoring index (profile/score_kernel.h), built once at
  /// snapshot construction; what the batched similarity kernels run on.
  const ScoreIndex& index() const { return index_; }

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

  /// Appends the per-item query scores Score_{u,Q}(i) of every item with a
  /// positive score to `out`, as (item, score) pairs ascending by item.
  void ScoreQuery(const QueryTags& query, std::vector<ItemScore>* out) const;

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
  double digest_fpp_ = 0.0;
  std::size_t digest_bytes_ = 0;

  /// Packed storage: arena block when arena_ is set, heap_ otherwise.
  std::shared_ptr<SlabArena> arena_;
  void* block_ = nullptr;
  AlignedVector<std::uint64_t> heap_;

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

/// Score(Q, i) summed over `profiles` for every item with a positive sum,
/// ordered by score descending, then item ascending, in a vector whose
/// capacity equals its size. The per-profile hits are appended to
/// `scratch`, a buffer the caller owns and may reuse across calls.
std::vector<ItemScore> RankQueryScores(std::span<const Profile* const> profiles,
                                       const QueryTags& query,
                                       std::vector<ItemScore>* scratch);

/// Computes PairSimilarity (profile/score_kernel.h) for two profiles with
/// the scalar reference merge. Production scoring goes through
/// KernelPairSimilarity / KernelPairSimilarityBatch instead; this stays as
/// the independent implementation the differential tests compare to.
PairSimilarity ComputePairSimilarity(const Profile& a, const Profile& b);

}  // namespace p3q

#endif  // P3Q_PROFILE_PROFILE_H_
