// The lazy mode: personal-network maintenance (Section 2.2.1, Algorithm 1).
//
// Each cycle every online user runs two layers:
//  - bottom: random-peer-sampling digest shuffle with a random-view peer,
//    followed by probing promising random-view digests (fetching the full
//    profile from its owner when the digest shows a common item);
//  - top: gossip with the personal-network neighbour having the oldest
//    timestamp, exchanging digests of a random subset of stored profiles
//    and running the 3-step exchange of Algorithm 1 (digest screen, actions
//    on common items, full profiles for new top-c entries).
//
// Under the engine's plan/commit contract the cycle splits in two: PlanCycle
// (parallel) reads the frozen start-of-cycle state, draws every random
// choice from the node's private forked stream, screens all candidates and
// scores them in batched kernel calls (KernelPairSimilarityBatch — the
// expensive similarity work runs once per node per cycle, preserving the
// scalar path's exact rng draw sequence) and buffers the decisions into
// the node's effect slot plus the shard's traffic mailbox; CommitCycle
// (sequential, ascending node order) applies the buffered view merges,
// personal-network offers, replica fills and timestamp bookkeeping. Effects
// of a cycle become visible to other nodes only at the next cycle — the
// classic bulk-synchronous gossip semantics, which is what makes the result
// independent of the thread count.
//
// The profile exchange is factored into Plan/CommitProfileExchange so the
// eager mode can piggyback the same maintenance on query gossip (Algorithm
// 3's "maintain personal network as in lazy mode") under the same contract.
#ifndef P3Q_CORE_LAZY_PROTOCOL_H_
#define P3Q_CORE_LAZY_PROTOCOL_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "gossip/view.h"
#include "sim/engine.h"
#include "sim/metrics.h"

namespace p3q {

class P3QSystem;
class P3QNode;

/// A screened candidate of a profile exchange: the receiver will offer
/// `digest`'s owner to her personal network at commit time with the
/// precomputed score; `rest_bytes` is the step-3 full-profile cost paid iff
/// the replica actually lands in the stored top-c.
struct ProfileExchangeOffer {
  std::uint64_t score = 0;
  DigestInfo digest;
  std::uint64_t rest_bytes = 0;
};

/// The planned effects of one bidirectional top-layer exchange a <-> b.
/// Step-1 (digest proposals) and step-2 (actions on common items) traffic is
/// recorded at plan time; the offers and the replica fill are committed
/// sequentially.
struct ProfileExchangePlan {
  UserId a = kInvalidUser;
  UserId b = kInvalidUser;
  std::vector<ProfileExchangeOffer> offers_to_b;  ///< candidates b screens in
  std::vector<ProfileExchangeOffer> offers_to_a;  ///< candidates a screens in

  bool Planned() const { return a != kInvalidUser; }
};

/// Cycle-driven lazy-mode protocol.
class LazyProtocol : public CycleProtocol {
 public:
  explicit LazyProtocol(P3QSystem* system);

  /// Parallel phase: bottom-layer peer choice + probing and top-layer
  /// screening/scoring against frozen state; the decisions are packaged as
  /// one self-contained message per node and handed to the delivery layer
  /// (traffic lands in the shard mailbox at send time).
  void PlanCycle(UserId node, const PlanContext& ctx) override;

  /// Barrier: folds the per-shard traffic mailboxes into the metrics.
  void EndPlan(std::uint64_t cycle) override;

  /// All commit work arrives as messages.
  bool UsesPerNodeCommit() const override { return false; }

  /// Sequential commit of one delivered gossip message (view merges,
  /// offers, replica fills, timestamps). Under the default ZeroLatency the
  /// message arrives at the same cycle's barrier — the classic semantics.
  void CommitMessage(UserId sender, std::uint64_t send_cycle,
                     std::uint64_t cycle, DeliveryMessage& message,
                     Rng* rng) override;

  /// The top-layer profile exchange between two online users a and b (both
  /// directions), planned and committed immediately — the sequential
  /// convenience used by the eager mode's wave of refreshments and by
  /// tests. All randomness (proposal sampling, digest screening) is drawn
  /// from `rng`.
  static void RunProfileExchange(P3QSystem* system, UserId a, UserId b,
                                 Rng* rng);

  /// Plans the exchange against frozen state: samples the proposals, runs
  /// the digest screen and similarity scoring for both directions, records
  /// step-1/step-2 traffic into `traffic`.
  static ProfileExchangePlan PlanProfileExchange(P3QSystem* system, UserId a,
                                                 UserId b, Rng* rng,
                                                 Metrics* traffic);

  /// Applies a planned exchange: offers both directions (conditionally
  /// recording step-3 traffic), then serves entries entitled to storage
  /// from the partner's current replicas (Algorithm 1's "require the rest
  /// of the tagging actions").
  static void CommitProfileExchange(P3QSystem* system,
                                    const ProfileExchangePlan& plan);

  /// Checkpoint codec for in-flight gossip messages.
  void EncodeMessage(const DeliveryMessage& message, CheckpointWriter* out,
                     ProfilePool* pool) const override;
  std::unique_ptr<DeliveryMessage> DecodeMessage(
      CheckpointReader* in, const ProfileTable& profiles) const override;

  /// Checkpoint codec for a planned profile exchange — shared with the
  /// eager mode, whose gossips piggyback the same structure.
  static void EncodeExchangePlan(const ProfileExchangePlan& plan,
                                 CheckpointWriter* out, ProfilePool* pool);
  static ProfileExchangePlan DecodeExchangePlan(CheckpointReader* in,
                                                const ProfileTable& profiles);

 private:
  /// A probed random-view digest whose full profile will be offered.
  struct PlannedProbe {
    std::uint64_t score = 0;
    DigestInfo digest;
  };

  /// One cycle's planned effects of one node, travelling as a
  /// self-contained message through the delivery layer.
  struct GossipMessage : DeliveryMessage {
    // Bottom layer.
    std::vector<UserId> view_removals;  ///< unresponsive peers to drop
    UserId bottom_peer = kInvalidUser;
    std::vector<DigestInfo> send_payload;  ///< merged into the peer's view
    std::vector<DigestInfo> recv_payload;  ///< merged into this node's view
    std::vector<PlannedProbe> probes;
    // Top layer.
    ProfileExchangePlan exchange;

    bool Empty() const {
      return view_removals.empty() && bottom_peer == kInvalidUser &&
             probes.empty() && !exchange.Planned();
    }
  };

  void PlanBottomLayer(P3QNode* node, const PlanContext& ctx,
                       GossipMessage* plan);
  void PlanTopLayer(P3QNode* node, const PlanContext& ctx,
                    GossipMessage* plan);

  P3QSystem* system_;
};

}  // namespace p3q

#endif  // P3Q_CORE_LAZY_PROTOCOL_H_
