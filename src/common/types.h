// P3Q — common value types shared by every module.
//
// The paper's data model (Section 2.1): users annotate items with tags; a
// tagging action is the triple Tagged_u(i, t). Profiles are sets of tagging
// actions; similarity between users is the number of common actions.
#ifndef P3Q_COMMON_TYPES_H_
#define P3Q_COMMON_TYPES_H_

#include <cstdint>
#include <limits>
#include <utility>

namespace p3q {

/// Identifier of a user (a node in the gossip overlay).
using UserId = std::uint32_t;
/// Identifier of a tagged item (URL in delicious).
using ItemId = std::uint32_t;
/// Identifier of a tag (a keyword freely chosen by users).
using TagId = std::uint32_t;

/// Sentinel for "no user".
inline constexpr UserId kInvalidUser = std::numeric_limits<UserId>::max();
/// Sentinel for "no item".
inline constexpr ItemId kInvalidItem = std::numeric_limits<ItemId>::max();

/// A tagging action Tagged(i, t) packed into a single 64-bit key so that a
/// profile is a sorted vector of uint64 and set intersection is a merge scan.
/// The item occupies the high 32 bits, which keeps actions on the same item
/// contiguous in a sorted profile.
using ActionKey = std::uint64_t;

/// Packs (item, tag) into an ActionKey.
constexpr ActionKey MakeAction(ItemId item, TagId tag) {
  return (static_cast<ActionKey>(item) << 32) | static_cast<ActionKey>(tag);
}

/// Extracts the item of a packed tagging action.
constexpr ItemId ActionItem(ActionKey a) { return static_cast<ItemId>(a >> 32); }

/// Extracts the tag of a packed tagging action.
constexpr TagId ActionTag(ActionKey a) {
  return static_cast<TagId>(a & 0xffffffffULL);
}

/// One scored item of a query: Score_{u,Q}(i) of one profile, or the sum of
/// such scores over several profiles (a partial result list's entry).
using ItemScore = std::pair<ItemId, std::uint32_t>;

// ---------------------------------------------------------------------------
// Wire-cost model (Section 3.3 of the paper). The paper computes bandwidth
// from fixed encodings rather than actual serialization: an item is its
// 128-bit MD4 hash, a tag a 16-byte string, a user id 4 bytes. We account
// message sizes with the same constants so the bandwidth figures are
// comparable.
// ---------------------------------------------------------------------------

/// Bytes of one transmitted tagging action: 16 B item hash + 16 B tag + 4 B
/// user id = 36 B ("a tagging action takes 36 bytes").
inline constexpr std::size_t kBytesPerTaggingAction = 36;
/// Bytes of one transmitted user identifier.
inline constexpr std::size_t kBytesPerUserId = 4;
/// Bytes of one item relevance score in a partial result list.
inline constexpr std::size_t kBytesPerScore = 4;
/// Bytes of one (item, score) entry of a partial result list.
inline constexpr std::size_t kBytesPerResultEntry = 16 + kBytesPerScore;
/// Default profile-digest Bloom filter size: 20 Kbit = 2500 B (FPP ~0.1% for
/// profiles of up to ~2000 items, the paper's 99th percentile).
inline constexpr std::size_t kDefaultDigestBits = 20 * 1024;

}  // namespace p3q

#endif  // P3Q_COMMON_TYPES_H_
