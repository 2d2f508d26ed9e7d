// View entries exchanged by the gossip layers.
//
// A DigestInfo is what actually travels in gossip messages: a user id plus
// the Bloom digest of (a version of) her profile. In the simulator the
// digest is carried as the immutable profile snapshot it was computed from,
// which keeps the digest's false-positive rate and wire size but not its
// bits. Protocol code reads the digest only through the helpers below: wire
// costs are accounted as digest bytes, so the semantics are exactly "a Bloom
// filter travelled", and the overlap check is an exact item test plus one
// draw at the filter's false-positive rate.
//
// A DigestInfo pins its snapshot, so only random views and in-flight
// messages hold them; a personal network keeps just the digest's version
// (NetworkEntry::digest_version) and lets the snapshot go. Code that only
// reads a digest borrows the snapshot (a `const Profile&`, or a
// `const ProfilePtr*` into the state that owns it) and builds a DigestInfo
// only for what outlives the read: a message payload, an offer or a view
// entry.
#ifndef P3Q_GOSSIP_VIEW_H_
#define P3Q_GOSSIP_VIEW_H_

#include <cmath>
#include <cstdint>

#include "common/random.h"
#include "profile/profile.h"

namespace p3q {

/// A (user, profile digest) descriptor as carried by gossip messages.
struct DigestInfo {
  UserId user = kInvalidUser;
  ProfilePtr snapshot;  ///< the profile version the digest was built from

  std::uint32_t version() const { return snapshot->version(); }

  /// Wire size of the descriptor: digest bits + the user id.
  std::size_t WireBytes() const {
    return snapshot->DigestBytes() + kBytesPerUserId;
  }
};

/// The Bloom check's answer for a pair that shares no item: one draw that
/// passes with the false-positive probability of `theirs`'s digest (testing
/// n items against an FPP-f filter passes spuriously with probability
/// 1-(1-f)^n).
inline bool DigestFalsePositive(const Profile& mine, const Profile& theirs,
                                Rng* rng) {
  const double fpp = theirs.DigestFpp();
  const double miss_all =
      std::pow(1.0 - fpp, static_cast<double>(mine.NumItems()));
  return rng->NextBool(1.0 - miss_all);
}

/// Simulates the receiver-side Bloom check "does Digest(other) contain at
/// least one item tagged by me?" — true on a genuine common item without a
/// draw, else DigestFalsePositive.
inline bool DigestIndicatesCommonItem(const Profile& mine,
                                      const DigestInfo& theirs, Rng* rng) {
  return mine.SharesItemWith(*theirs.snapshot) ||
         DigestFalsePositive(mine, *theirs.snapshot, rng);
}

}  // namespace p3q

#endif  // P3Q_GOSSIP_VIEW_H_
