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
// the node's effect slot plus the shard's traffic mailbox; CommitMessage
// applies the buffered view merges, personal-network offers, replica fills
// and timestamp bookkeeping in the drain's (due, sender, seq) order.
// Effects of a cycle become visible to other nodes only at the next cycle —
// the classic bulk-synchronous gossip semantics, which is what makes the
// result independent of the thread count. Each message declares its commit
// footprint (sender, bottom-layer peer, exchange partner), so the engine
// commits messages with disjoint footprints concurrently without changing
// what any commit sees.
//
// The profile exchange is factored into Plan/CommitProfileExchange so the
// eager mode can piggyback the same maintenance on query gossip (Algorithm
// 3's "maintain personal network as in lazy mode") under the same contract.
//
// A gossip message is one heap object whose vectors live on the planning
// shard's arena for the send cycle (PlanContext::arena). The payloads, the
// probes and the offers are each reserved once before they fill, so the
// bump arena wastes nothing on their growth. The commit drops the message's snapshot handles (its digests and
// offers) before it returns, on the thread that commits it; the engine's
// teardown then frees only the message object, and the arena goes whole
// once the cycle's messages are all delivered. A message decoded from a
// checkpoint, the eager piggyback and the wave keep heap-backed vectors.
#ifndef P3Q_CORE_LAZY_PROTOCOL_H_
#define P3Q_CORE_LAZY_PROTOCOL_H_

#include <cstdint>
#include <memory_resource>
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
/// later, touching only a's and b's state.
struct ProfileExchangePlan {
  /// The offers live on `arena` (by default, the heap).
  explicit ProfileExchangePlan(
      std::pmr::memory_resource* arena = std::pmr::get_default_resource())
      : offers_to_b(arena), offers_to_a(arena) {}

  UserId a = kInvalidUser;
  UserId b = kInvalidUser;
  std::pmr::vector<ProfileExchangeOffer> offers_to_b;  ///< b screens them in
  std::pmr::vector<ProfileExchangeOffer> offers_to_a;  ///< a screens them in

  bool Planned() const { return a != kInvalidUser; }

  /// Drops the offers' snapshot handles once the exchange has committed.
  void DropSnapshots() {
    offers_to_b.clear();
    offers_to_a.clear();
  }
};

/// Checkpoint layout of a planned exchange, saved through a
/// CheckpointWriter (`plan` const) and loaded through a CheckpointReader
/// (sim/checkpoint.h); the eager mode's gossips piggyback the same
/// structure.
template <class Io, class Plan>
void TransferExchangePlan(Io& io, Plan& plan);

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

  /// Commit of one delivered gossip message (view merges, offers, replica
  /// fills, timestamps). Under the default zero latency the message arrives
  /// at the same cycle's barrier — the classic semantics. Step-3 traffic
  /// goes to the worker's lane, Network::ShardTraffic(ctx.worker). Drops
  /// the message's snapshot handles before it returns.
  void CommitMessage(UserId sender, DeliveryMessage& message,
                     const CommitContext& ctx) override;

  /// Commits run level-parallel: a message touches its sender, its
  /// bottom-layer peer and its exchange endpoints, nobody else.
  bool DeclaresCommitFootprints() const override { return true; }
  void CommitFootprintOf(UserId sender, const DeliveryMessage& message,
                         CommitFootprint* footprint) const override;

  /// After the drain: folds the commit traffic lanes into the metrics.
  void EndCycle(std::uint64_t cycle, Rng* rng) override;

  /// The top-layer profile exchange between two online users a and b (both
  /// directions), planned and committed immediately — the sequential
  /// convenience used by the eager mode's wave of refreshments and by
  /// tests. All randomness (proposal sampling, digest screening) is drawn
  /// from `rng`.
  static void RunProfileExchange(P3QSystem* system, UserId a, UserId b,
                                 Rng* rng);

  /// Plans the exchange into `plan`, which arrives unplanned, against frozen
  /// state: samples the proposals, runs the digest screen and similarity
  /// scoring for both directions, records step-1/step-2 traffic into
  /// `traffic`. The offers go to `plan`'s own allocator.
  static void PlanProfileExchange(P3QSystem* system, UserId a, UserId b,
                                  Rng* rng, Metrics* traffic,
                                  ProfileExchangePlan* plan);

  /// Applies a planned exchange: offers both directions (conditionally
  /// recording step-3 traffic into `traffic`), then serves entries entitled
  /// to storage from the partner's current replicas (Algorithm 1's "require
  /// the rest of the tagging actions"). Reads and writes only the state of
  /// plan.a and plan.b.
  static void CommitProfileExchange(P3QSystem* system,
                                    const ProfileExchangePlan& plan,
                                    Metrics* traffic);

  /// Checkpoint codec for in-flight gossip messages.
  void EncodeMessage(const DeliveryMessage& message,
                     CheckpointWriter* out) const override;
  std::unique_ptr<DeliveryMessage> DecodeMessage(
      CheckpointReader* in) const override;

 private:
  /// A probed random-view digest whose full profile will be offered.
  struct PlannedProbe {
    std::uint64_t score = 0;
    DigestInfo digest;
  };

  /// One cycle's planned effects of one node, travelling as a
  /// self-contained message through the delivery layer. Its vectors live
  /// on `arena`: the shard's send-cycle arena when planned, the heap when
  /// decoded from a checkpoint.
  struct GossipMessage : DeliveryMessage {
    explicit GossipMessage(
        std::pmr::memory_resource* arena = std::pmr::get_default_resource())
        : view_removals(arena),
          send_payload(arena),
          recv_payload(arena),
          probes(arena),
          exchange(arena) {}

    // Bottom layer.
    std::pmr::vector<UserId> view_removals;  ///< unresponsive peers to drop
    UserId bottom_peer = kInvalidUser;
    /// Merged into the peer's view, and into this node's.
    std::pmr::vector<DigestInfo> send_payload;
    std::pmr::vector<DigestInfo> recv_payload;
    std::pmr::vector<PlannedProbe> probes;
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
  /// The EncodeMessage/DecodeMessage layout; `plan` is const when saving.
  template <class Io, class Message>
  static void TransferMessage(Io& io, Message& plan);

  P3QSystem* system_;
};

}  // namespace p3q

#endif  // P3Q_CORE_LAZY_PROTOCOL_H_
