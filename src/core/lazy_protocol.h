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
// Its plan is two passes: a screen that draws nothing (the proposal lists,
// the known-version screen and one kernel batch per direction) and the
// draws (the false-positive and spurious-common draws, the step-1/step-2
// traffic and the offers). PlanProfileExchange runs them back to back; the
// eager mode's wave of refreshments screens on the worker pool and draws on
// the calling thread (core/eager_protocol.h).
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
#include "profile/score_kernel.h"
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

/// The proposals that passed exchange screens, as two parallel lists: each
/// survivor's proposed snapshot, borrowed from the proposer's network (valid
/// while its PersonalNetwork::Revision() holds), and its kernel similarity
/// to the receiver's profile. One list collects many screens.
struct ScreenedProposals {
  std::vector<const ProfilePtr*> proposals;
  std::vector<PairSimilarity> sims;

  std::size_t size() const { return proposals.size(); }
  void clear() {
    proposals.clear();
    sims.clear();
  }
};

/// The rng-free part of planning one exchange a <-> b
/// (LazyProtocol::ScreenProfileExchange): the wire size of each side's
/// proposals, and where each direction's survivors sit in the
/// ScreenedProposals the screen appended them to.
struct ExchangeScreen {
  UserId a = kInvalidUser;
  UserId b = kInvalidUser;
  std::uint64_t a_proposal_bytes = 0;
  std::uint64_t b_proposal_bytes = 0;
  /// a's proposals that b keeps are survivors [first, first + to_b); b's
  /// proposals that a keeps follow them, to_a of them.
  std::uint32_t first = 0;
  std::uint32_t to_b = 0;
  std::uint32_t to_a = 0;
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

  /// Online users gossip; offline ones sit the cycle out.
  bool ActiveInCycle(UserId node) const override;

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

  /// Commits run on the workers, each once the earlier messages sharing a
  /// user with it have: a message touches its sender, its bottom-layer
  /// peer and its exchange endpoints, nobody else.
  bool DeclaresCommitFootprints() const override { return true; }
  void CommitFootprintOf(UserId sender, const DeliveryMessage& message,
                         CommitFootprint* footprint) const override;

  /// After the drain: folds the commit traffic lanes into the metrics.
  void EndCycle(std::uint64_t cycle, Rng* rng) override;

  /// Plans the exchange into `plan`, which arrives unplanned, against frozen
  /// state: draws the proposal samples (a's, then b's, only for a side that
  /// stores more than gossip_profile_fanout profiles), screens both
  /// directions (ScreenProfileExchange's work), then draws
  /// (DrawProfileExchange), all from `rng`. Step-1/step-2 traffic goes to
  /// `traffic`, the offers to `plan`'s own allocator.
  static void PlanProfileExchange(P3QSystem* system, UserId a, UserId b,
                                  Rng* rng, Metrics* traffic,
                                  ProfileExchangePlan* plan);

  /// The screen of PlanProfileExchange on its own, which draws nothing:
  /// builds both proposal lists, drops the proposals each receiver already
  /// knows at the proposed version or newer, and scores each direction's
  /// survivors in one kernel batch, appending them to `survivors`. Returns
  /// false, screening nothing, when a side stores more than
  /// gossip_profile_fanout profiles: its proposals are then a random sample,
  /// so only PlanProfileExchange can plan the exchange. Reads the two
  /// users' networks and profiles and writes only `survivors` and `screen`.
  static bool ScreenProfileExchange(const P3QSystem* system, UserId a,
                                    UserId b, ScreenedProposals* survivors,
                                    ExchangeScreen* screen);

  /// The draws of a screened exchange, against the state the screen read:
  /// records both sides' proposals into `traffic`, then for b's direction
  /// and then a's draws the false-positive and spurious-common values from
  /// `rng`, records the step-2 traffic and builds the offers into `plan`,
  /// which arrives unplanned.
  static void DrawProfileExchange(const P3QSystem* system,
                                  const ExchangeScreen& screen,
                                  const ScreenedProposals& survivors,
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
