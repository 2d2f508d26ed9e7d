// Random peer sampling — the bottom gossip layer (Section 2.2.1).
//
// Implements the paper's variant of gossip-based peer sampling (Jelasity et
// al., TOCS 2007): every cycle a node picks a uniform peer from its random
// view, the two swap their r digests, and each keeps r entries selected
// uniformly at random from the union. The random view keeps the overlay
// connected regardless of interest clustering and feeds fresh candidates to
// the personal-network layer.
//
// A view owns its entries: each DigestInfo pins the snapshot it was built
// from. A merge reads the two digest lists through pointers, in a hash
// table that lives on the stack, and copies only the <= r survivors into
// the view, so the lazy commit's two merges allocate nothing once the view
// is full.
#ifndef P3Q_GOSSIP_PEER_SAMPLING_H_
#define P3Q_GOSSIP_PEER_SAMPLING_H_

#include <vector>

#include "common/random.h"
#include "gossip/view.h"

namespace p3q {

/// One node's random view.
class RandomView {
 public:
  /// self: owning user; capacity: the paper's r (default 10).
  RandomView(UserId self, std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  const std::vector<DigestInfo>& entries() const { return entries_; }
  bool Empty() const { return entries_.empty(); }

  /// Replaces the view content (bootstrap).
  void Init(std::vector<DigestInfo> entries);

  /// Uniformly random peer id from the view; kInvalidUser when empty.
  UserId SelectRandomPeer(Rng* rng) const;

  /// The digests this node sends in one exchange: its whole view plus its
  /// own fresh descriptor (standard peer-sampling push so newcomers spread).
  std::vector<DigestInfo> MakeExchangePayload(const DigestInfo& self_digest) const;

  /// Merges received digests: union of current view and received entries
  /// (deduplicated by user keeping the newest version, never containing
  /// self), then keeps `capacity` uniformly random survivors. The union's
  /// order, and so which survivors the rng picks, is libstdc++'s
  /// unordered_map iteration order (see peer_sampling.cc).
  void Merge(const std::vector<DigestInfo>& received, Rng* rng);

  /// Drops a user from the view (e.g. detected offline).
  void Remove(UserId user);

  /// Bytes held by the view's entry vector (its capacity).
  std::size_t MemoryBytes() const {
    return entries_.capacity() * sizeof(DigestInfo);
  }

 private:
  UserId self_;
  std::size_t capacity_;
  std::vector<DigestInfo> entries_;
};

}  // namespace p3q

#endif  // P3Q_GOSSIP_PEER_SAMPLING_H_
