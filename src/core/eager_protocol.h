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
// CommitMessage (sequential, delivery order) applies the
// task/traffic/query-state effects when the message arrives, merge-aware so
// a list portion another commit appended to this node's task after planning
// is never lost. EndCycle runs the wave of refreshments over this cycle's
// participants. Each open query's end-of-cycle NRA pass and snapshot is a
// close-out item (PrepareCloseouts / Closeout): it touches only that
// query's ActiveQuery, so the engine may run it on a plan worker beside
// the wave.
//
// Under a lagging or lossy latency model a task's gossip can be in flight
// for several cycles, so each task gossips at most once concurrently: the
// owner marks it in flight at plan time and waits eager_retry_cycles for
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
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/lazy_protocol.h"
#include "core/p3q_node.h"
#include "core/query.h"
#include "sim/engine.h"

namespace p3q {

class P3QSystem;

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
  void BeginCycle(std::uint64_t cycle) override;
  /// Only nodes holding query tasks do eager work; everyone else is
  /// filtered out before the engine forks their streams, keeping query
  /// cycles O(engaged nodes) on large, mostly-idle populations.
  bool ActiveInCycle(UserId node) const override;
  void PlanCycle(UserId node, const PlanContext& ctx) override;
  void EndPlan(std::uint64_t cycle) override;
  /// Sequential: commits share per-query state, participants_ and the
  /// epoch counter, so the protocol declares no commit footprints.
  void CommitMessage(UserId sender, DeliveryMessage& message,
                     const CommitContext& ctx) override;
  /// Collects the queries not yet finalized; each is one close-out item.
  std::size_t PrepareCloseouts(std::uint64_t cycle) override;
  /// Algorithm 4 at the querier: folds the cycle's partial results into the
  /// query's NRA and records its snapshot.
  void Closeout(std::size_t item) override;
  /// The wave of refreshments.
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

  /// Users the query's gossip has reached (includes the querier).
  const std::unordered_set<UserId>& Reached(std::uint64_t id) const {
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

  /// Checkpoint codec for in-flight task gossip messages.
  void EncodeMessage(const DeliveryMessage& message, CheckpointWriter* out,
                     ProfilePool* pool) const override;
  std::unique_ptr<DeliveryMessage> DecodeMessage(
      CheckpointReader* in, const ProfileTable& profiles) const override;

  /// Serializes the protocol-level query state: per-query ActiveQuery +
  /// reach/task bookkeeping, the counters, and the id/epoch allocators.
  /// (Per-node EagerTasks live with the nodes, saved by P3QSystem.)
  void SaveState(CheckpointWriter* out) const;

  /// Restores state written by SaveState, replacing current contents.
  void LoadState(CheckpointReader* in);

 private:
  struct QueryState {
    std::unique_ptr<ActiveQuery> query;
    std::unordered_set<UserId> reached;
    int active_tasks = 0;     ///< nodes currently holding a non-empty list
    bool finalized = false;   ///< completion snapshot already recorded
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

  /// Algorithm 3 lines 4-9: remaining-list member that is also a
  /// personal-network neighbour with maximum timestamp, else a random
  /// remaining-list member; skips offline candidates (bounded retries).
  UserId SelectDestination(const P3QNode* initiator, const EagerTask& task,
                           Rng* rng);

  /// Plans one gossip of `task` from `node` (Algorithm 3 both roles);
  /// returns true when a gossip was appended to `message`.
  bool PlanGossip(const P3QNode* node, const EagerTask& task,
                  const PlanContext& ctx, TaskGossipMessage* message);

  /// Applies one delivered gossip at commit time; the context's
  /// send_cycle/cycle are the gossip's wire endpoints (traced as committed
  /// or stale).
  void CommitGossip(P3QNode* node, const CommitContext& ctx,
                    PlannedGossip* gossip);

  /// Looks up a query's state; throws std::out_of_range naming the id when
  /// the query was never issued or has been forgotten.
  QueryState& StateOrThrow(std::uint64_t id);
  const QueryState& StateOrThrow(std::uint64_t id) const;

  /// Sums Score_{u,Q}(i) over the given (borrowed) profiles into a ranked
  /// list.
  static PartialResultMessage BuildPartialResult(
      const std::vector<const Profile*>& profiles,
      const std::vector<UserId>& owners, const std::vector<TagId>& tags);

  P3QSystem* system_;
  std::unordered_map<std::uint64_t, QueryState> state_;
  /// This cycle's close-out items, from PrepareCloseouts to the cycle's
  /// end (state_ is neither grown nor shrunk in between).
  std::vector<QueryState*> closeouts_;
  /// Users who took part in query gossip during the current cycle; each
  /// runs one maintenance exchange at the end of the cycle.
  std::unordered_set<UserId> participants_;
  /// Timeout re-issues decided on plan threads, folded at the barrier (the
  /// same per-shard mailbox discipline as Network::ShardTraffic).
  std::array<std::uint64_t, kEngineShards> shard_reissues_{};
  std::uint64_t timeout_reissues_ = 0;
  std::uint64_t stale_messages_dropped_ = 0;
  /// Late-partial-result drops of already-forgotten queries (folded in by
  /// Forget so the system-wide total stays monotone).
  std::uint64_t forgotten_late_results_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_epoch_ = 1;  ///< unique EagerTask incarnation ids
};

}  // namespace p3q

#endif  // P3Q_CORE_EAGER_PROTOCOL_H_
