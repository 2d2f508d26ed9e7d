// The eager mode: collaborative query processing (Section 2.2.2,
// Algorithms 2 and 3).
//
// A query gossips through the querier's personal network together with a
// "remaining list" — the network members whose profiles the querier does
// not store. Every reached user prunes the list with the replicas she
// stores, computes her share of the query, ships the partial result
// straight to the querier, keeps a (1-α) portion of the pruned list as her
// own task, and returns the α portion to the gossip initiator. The querier
// merges the asynchronously arriving partial lists with incremental NRA at
// the end of each cycle. Each query gossip also piggybacks a lazy-mode
// profile exchange, refreshing the personal networks along the way.
//
// Under the engine's plan/commit contract: PlanCycle (parallel) selects the
// destination, prunes against the destination's frozen replicas, computes
// the partial result (the expensive per-profile scoring) and splits the
// list — all from the node's private forked stream — and packages the
// cycle's gossips as one self-contained message to the delivery layer. The
// piggybacked maintenance exchange screens its candidates through the same
// batched similarity kernel as the lazy mode (one KernelPairSimilarityBatch
// sweep per screen, see profile/score_kernel.h).
// CommitMessage applies the task/traffic/query-state effects when the
// message arrives, merge-aware so a list portion another commit appended to
// this node's task after planning is never lost. A message's commit footprint
// (sim/engine.h) is its sender and every gossip's destination, of any
// number, so the engine commits messages that share no user on its workers
// at the same time. What such commits still share follows three rules:
//   - shared counters (the exchange's traffic, the stale drops) and the
//     wave's participants go to one lane per worker (CommitContext::worker),
//     folded by EndCycle;
//   - a query's own state (its traffic, the users reached, its partial
//     results, its active-task count) changes only under the query's lock,
//     and only by sums, set unions and appends, which no commit reads; the
//     querier folds the partial results in message order
//     (PartialResultMessage::arrival);
//   - a task a commit creates holds epoch 0, which no gossip carries, until
//     EndCycle gives out the epochs in message order, as an in-order drain
//     would.
// After the drain EndCycle runs three steps on the system's worker pool
// (sim/worker_pool.h):
//   1. it screens the exchange of each of the cycle's participants in the
//      wave of refreshments (RefreshWave below), one pool item each;
//   2. it runs the wave, the exchanges in ascending participant order, on
//      the calling thread (the pool job's `beside` work);
//   3. beside the wave, it closes out each open query, one pool item each:
//      the query's end-of-cycle NRA pass and snapshot (Algorithm 4), which
//      touches only that query's ActiveQuery and nothing the wave does.
//
// A partial result comes from RankQueryScores (profile/profile.h): a
// screened scan of each profile into a hit buffer the plan thread keeps,
// one sort-and-sum merge, and a ranked list of exact capacity, which the
// querier's flat NRA (core/topk.h) copies at close-out. The "Query path"
// section of docs/ARCHITECTURE.md says which thread allocates and frees
// what.
//
// Under a lagging or lossy latency model a task's gossip can be in flight
// for several cycles, so each task gossips at most once concurrently: the
// owner marks it in flight at plan time and waits kEagerRetryCycles for
// the reply; past that deadline it bumps the task's generation (stamped
// into every planned gossip) and re-issues from the current list. A
// superseded or orphaned message that still arrives is counted and dropped
// — nothing is double-applied, and lost messages cost only the retry wait
// because the consumed list entries stay with the owner until commit.
#ifndef P3Q_CORE_EAGER_PROTOCOL_H_
#define P3Q_CORE_EAGER_PROTOCOL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/lazy_protocol.h"
#include "core/p3q_node.h"
#include "core/query.h"
#include "sim/engine.h"

namespace p3q {

class P3QSystem;

/// The wave of refreshments (Algorithm 3, lines 12/24): every user who took
/// part in query gossip this cycle runs one lazy-style exchange with her
/// oldest neighbour, in ascending id, each seeing the previous exchanges'
/// commits, all drawing from the cycle's one stream.
///
/// The exchanges' screens (LazyProtocol::ScreenProfileExchange) draw
/// nothing, so they run first, one per participant, possibly on the worker
/// pool, against the state the drain left. Run then walks the participants
/// in order and reuses a participant's screen when it is exactly what the
/// serial plan would compute at her turn: when her network's Revision(),
/// her partner's Revision() and the partner's timestamp in her network are
/// the ones the screen read. Until her own turn only her other neighbours'
/// timestamps can change, and only to "just gossiped", so the screened
/// partner is still her oldest neighbour unless it was itself reset.
/// Otherwise, and when a side stores more than gossip_profile_fanout
/// profiles (its proposals are a sample drawn from the stream), the
/// exchange is re-planned serially (LazyProtocol::PlanProfileExchange).
/// The draws stay on the one stream in the same order, so every outcome is
/// the serial wave's.
class RefreshWave {
 public:
  explicit RefreshWave(P3QSystem* system) : system_(system) {}

  /// Sizes the participant marks for `users` users. Sequential, before the
  /// drain whose commits Add.
  void Open(std::size_t users) { listed_.resize(users, 0); }

  /// Adds `user` to this cycle's participants, in `worker`'s list; a repeat
  /// is a no-op. Commits on several workers may Add at once, as long as
  /// only a commit whose footprint holds `user` adds it (worker <
  /// kEngineShards).
  void Add(UserId user, std::size_t worker);

  /// Gathers the workers' lists, sorts the participants and makes room for
  /// their screens; returns how many there are. Sequential, after the last
  /// Add of the cycle.
  std::size_t Prepare();

  /// Screens participant `item`'s exchange against the current state; it
  /// writes only the item's screen and `worker`'s survivor lane, so items
  /// on different workers may run concurrently (worker < kEngineShards).
  void Screen(std::size_t item, std::size_t worker);

  /// Runs every participant's exchange in ascending order, all drawing from
  /// `rng`, then forgets the participants.
  void Run(Rng* rng);

  /// Forgets the participants without running their exchanges.
  void Clear();

  /// Exchanges planned serially rather than from their screen, over the
  /// wave's lifetime (not checkpointed).
  std::uint64_t replans() const { return replans_; }

 private:
  /// What Screen found for one participant.
  struct Screened {
    enum class Kind : std::uint8_t {
      kOffline,     ///< the participant is offline: no exchange
      kNoPartner,   ///< no neighbour, or the oldest one is offline
      kScreened,    ///< `exchange` holds the screen
      kSampled,     ///< a side samples its proposals: re-plan serially
    };
    Kind kind = Kind::kOffline;
    std::uint8_t lane = 0;  ///< the worker whose lane holds the survivors
    UserId partner = kInvalidUser;
    std::uint32_t partner_timestamp = 0;  ///< in the participant's network
    std::uint64_t revision = 0;           ///< the participant's network
    std::uint64_t partner_revision = 0;
    ExchangeScreen exchange;
  };

  /// True when `screened` is what the serial plan would find now.
  bool Reusable(const Screened& screened,
                const PersonalNetwork& network) const;

  /// The users one worker added this cycle, a cache line from the next
  /// worker's.
  struct alignas(64) Joined {
    std::vector<UserId> users;
  };

  P3QSystem* system_;
  /// Per user: added this cycle (sized by Open).
  std::vector<std::uint8_t> listed_;
  std::array<Joined, kEngineShards> joined_;
  std::vector<UserId> participants_;
  std::vector<Screened> screens_;  ///< one per participant
  /// The survivors of every screen a worker ran this cycle.
  std::array<ScreenedProposals, kEngineShards> lanes_;
  std::uint64_t replans_ = 0;
};

/// Query-processing protocol; one instance per system, driven by the
/// eager cycle engine.
class EagerProtocol : public CycleProtocol {
 public:
  explicit EagerProtocol(P3QSystem* system);

  /// Starts a query: local processing at the querier, remaining-list
  /// construction, cycle-0 snapshot. Returns the query id. Sequential —
  /// issue queries between cycles, never during one.
  std::uint64_t IssueQuery(const QuerySpec& spec);

  // -- CycleProtocol ---------------------------------------------------------
  /// Only online nodes holding query tasks do eager work; everyone else is
  /// filtered out before the engine forks their streams, keeping query
  /// cycles O(engaged nodes) on large, mostly-idle populations.
  bool ActiveInCycle(UserId node) const override;
  void PlanCycle(UserId node, const PlanContext& ctx) override;
  void EndPlan(std::uint64_t cycle) override;
  /// Commits on the workers, each once the earlier messages sharing a user
  /// with it have; what commits of different users share follows the three
  /// rules of the file comment.
  void CommitMessage(UserId sender, DeliveryMessage& message,
                     const CommitContext& ctx) override;
  bool DeclaresCommitFootprints() const override { return true; }
  /// Every gossip's destination and exchange endpoints: a gossip touches
  /// the sender's and the destination's tasks and networks, and its
  /// exchange runs between the same two users. A message names as many
  /// users as it carries gossips, and more than four is common.
  void CommitFootprintOf(UserId sender, const DeliveryMessage& message,
                         CommitFootprint* footprint) const override;
  /// Folds the drain's lanes and gives the tasks it created their epochs;
  /// then the wave of refreshments, and beside it Algorithm 4 at each
  /// querier: the cycle's partial results folded into the query's NRA and
  /// its snapshot recorded (see the file comment).
  void EndCycle(std::uint64_t cycle, Rng* rng) override;

  /// Every id-keyed accessor throws std::out_of_range naming the id for an
  /// unknown (never issued, or already forgotten) query — the serving
  /// harness polls many ids, so a silent mislookup would be load-bearing.
  ActiveQuery& query(std::uint64_t id) { return *StateOrThrow(id).query; }
  const ActiveQuery& query(std::uint64_t id) const {
    return *StateOrThrow(id).query;
  }

  /// True when no remaining list for the query exists anywhere.
  bool Complete(std::uint64_t id) const {
    return StateOrThrow(id).active_tasks == 0;
  }

  /// Users the query's gossip has reached (includes the querier), in
  /// ascending id.
  const std::vector<UserId>& Reached(std::uint64_t id) const {
    return StateOrThrow(id).reached;
  }

  /// True when the query was issued and not yet forgotten.
  bool HasQuery(std::uint64_t id) const { return state_.contains(id); }

  std::vector<std::uint64_t> AllQueryIds() const;

  /// Releases all state of a query (long parameter sweeps). Messages of the
  /// query still in flight are counted and dropped when they arrive.
  void Forget(std::uint64_t id);

  /// Delivered gossips discarded because a timeout re-issue superseded them
  /// or their query state was already forgotten.
  std::uint64_t stale_messages_dropped() const {
    return stale_messages_dropped_;
  }

  /// Task gossips re-issued after the in-flight deadline passed (lost or
  /// hopelessly late messages).
  std::uint64_t timeout_reissues() const { return timeout_reissues_; }

  /// Partial results that reached their querier after finalization and
  /// were dropped, summed over live and forgotten queries (monotone).
  std::uint64_t late_partial_results_dropped() const;

  /// Wave exchanges re-planned serially instead of taken from their
  /// screen (RefreshWave::replans); the same for every thread count.
  std::uint64_t wave_replans() const { return wave_.replans(); }

  /// Checkpoint codec for in-flight task gossip messages.
  void EncodeMessage(const DeliveryMessage& message,
                     CheckpointWriter* out) const override;
  std::unique_ptr<DeliveryMessage> DecodeMessage(
      CheckpointReader* in) const override;

  /// Serializes the protocol-level query state: per-query ActiveQuery +
  /// reach/task bookkeeping, the counters, and the id/epoch allocators.
  /// (Per-node EagerTasks live with the nodes, saved by P3QSystem.)
  void SaveState(CheckpointWriter* out) const;

  /// Restores state written by SaveState, replacing current contents.
  void LoadState(CheckpointReader* in);

 private:
  struct QueryState {
    std::unique_ptr<ActiveQuery> query;
    std::vector<UserId> reached;  ///< ascending
    int active_tasks = 0;  ///< nodes currently holding a non-empty list
    /// Held by a commit while it changes the fields above, which commits
    /// on other workers may change at the same time.
    std::unique_ptr<std::mutex> lock = std::make_unique<std::mutex>();
  };

  /// One planned gossip of a task (Algorithm 3 both roles, decided against
  /// frozen state).
  struct PlannedGossip {
    std::uint64_t query_id = 0;
    UserId dest = kInvalidUser;
    /// Task (incarnation, generation) at plan time; any mismatch at
    /// delivery means the task was superseded — by a timeout re-issue, or
    /// by dying and being recreated from another sender's kept portion —
    /// and the gossip must be discarded.
    std::uint64_t epoch = 0;
    std::uint32_t generation = 0;
    /// Entries of the task's remaining list consumed by this gossip; at
    /// commit they are replaced by `returned` while entries appended to the
    /// task after planning are preserved.
    std::size_t consumed = 0;
    std::size_t fwd_bytes = 0;
    bool has_partial = false;
    PartialResultMessage partial;
    std::vector<UserId> returned;  ///< α portion, back to this node's task
    std::vector<UserId> kept;      ///< 1-α portion, becomes the dest's task
    ProfileExchangePlan exchange;  ///< piggybacked maintenance
  };

  /// One cycle's gossips of one node, travelling through the delivery
  /// layer as a self-contained message.
  struct TaskGossipMessage : DeliveryMessage {
    std::vector<PlannedGossip> gossips;  ///< one per task, query-id order
  };

  /// A task a commit created, waiting for its epoch: where the in-order
  /// drain would have created it, and where it is.
  struct NewTask {
    std::size_t message = 0;  ///< CommitContext::message
    std::size_t gossip = 0;   ///< its gossip's index in the message
    UserId holder = kInvalidUser;
    std::uint64_t query_id = 0;
  };

  /// What one drain worker's commits leave for EndCycle, a cache line from
  /// the next worker's.
  struct alignas(64) CommitLane {
    std::uint64_t stale_dropped = 0;
    std::vector<NewTask> new_tasks;
  };

  /// Algorithm 3 lines 4-9: remaining-list member that is also a
  /// personal-network neighbour with maximum timestamp, else a random
  /// remaining-list member; skips offline candidates (bounded retries).
  UserId SelectDestination(const P3QNode* initiator, const EagerTask& task,
                           Rng* rng);

  /// Plans one gossip of `task` from `node` (Algorithm 3 both roles);
  /// returns true when a gossip was appended to `message`.
  bool PlanGossip(const P3QNode* node, const EagerTask& task,
                  const PlanContext& ctx, TaskGossipMessage* message);

  /// Applies one delivered gossip, the message's `index`-th, at commit
  /// time; the context's send_cycle/cycle are the gossip's wire endpoints
  /// (traced as committed or stale).
  void CommitGossip(P3QNode* node, const CommitContext& ctx,
                    std::size_t index, PlannedGossip* gossip);

  /// Looks up a query's state; throws std::out_of_range naming the id when
  /// the query was never issued or has been forgotten.
  QueryState& StateOrThrow(std::uint64_t id);
  const QueryState& StateOrThrow(std::uint64_t id) const;

  /// Sums Score_{u,Q}(i) over the given (borrowed) profiles into a ranked
  /// list of exact capacity (RankQueryScores, profile/profile.h).
  static PartialResultMessage BuildPartialResult(
      const std::vector<const Profile*>& profiles, std::vector<UserId> owners,
      const std::vector<TagId>& tags);

  /// The EncodeMessage/DecodeMessage and SaveState/LoadState layouts; the
  /// message and `self` are const when saving.
  template <class Io, class Message>
  static void TransferMessage(Io& io, Message& message);
  template <class Io, class Self>
  static void Transfer(Io& io, Self& self);

  P3QSystem* system_;
  std::unordered_map<std::uint64_t, QueryState> state_;
  /// Users who took part in query gossip during the current cycle; each
  /// runs one maintenance exchange at the end of the cycle.
  RefreshWave wave_;
  /// Timeout re-issues decided on plan threads, folded at the barrier (the
  /// same per-shard mailbox discipline as Network::ShardTraffic).
  std::array<std::uint64_t, kEngineShards> shard_reissues_{};
  std::uint64_t timeout_reissues_ = 0;
  std::uint64_t stale_messages_dropped_ = 0;
  /// One per drain worker, folded by EndCycle.
  std::array<CommitLane, kEngineShards> lanes_;
  /// The lanes' new tasks, in message order (EndCycle's scratch).
  std::vector<NewTask> new_tasks_;
  /// Late-partial-result drops of already-forgotten queries (folded in by
  /// Forget so the system-wide total stays monotone).
  std::uint64_t forgotten_late_results_ = 0;
  std::uint64_t next_id_ = 1;
  /// Unique EagerTask incarnation ids; 0 is never handed out.
  std::uint64_t next_epoch_ = 1;
};

}  // namespace p3q

#endif  // P3Q_CORE_EAGER_PROTOCOL_H_
