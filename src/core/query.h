// Querier-side state of an in-flight personalized top-k query.
//
// While the eager mode gossips a query through the querier's personal
// network, partial result lists stream back to her in dedicated messages.
// ActiveQuery collects them, feeds the incremental NRA at the end of every
// cycle, and records a per-cycle snapshot (the top-k the user would see, how
// many of her neighbours' profiles contributed, and the traffic spent) —
// exactly the quantities Figures 3, 4, 6, 8 and 11 plot.
#ifndef P3Q_CORE_QUERY_H_
#define P3Q_CORE_QUERY_H_

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "common/counters.h"
#include "common/types.h"
#include "core/topk.h"
#include "dataset/query_gen.h"

namespace p3q {

/// A partial result list travelling from a collaborating user to the querier.
struct PartialResultMessage {
  /// (item, partial score), sorted by score descending; may be empty when
  /// the used profiles matched no query tag.
  std::vector<std::pair<ItemId, std::uint32_t>> entries;
  /// Users whose profiles produced this list (the querier's progress gauge).
  std::vector<UserId> used_profiles;
  /// Where the list arrived in its cycle's drain: the index of the message
  /// that carried it (CommitContext::message). Commits on several workers
  /// deliver a query's lists in any order, and EndOfCycle folds them in
  /// this one. Not on the wire, and not checkpointed.
  std::size_t arrival = 0;

  /// Wire size: scored items plus the used-profile ids.
  std::size_t WireBytes() const {
    return entries.size() * kBytesPerResultEntry +
           used_profiles.size() * kBytesPerUserId;
  }
};

/// Checkpoint layout of a partial result, saved through a CheckpointWriter
/// (`message` const) and loaded through a CheckpointReader
/// (sim/checkpoint.h). Querier inboxes and eager gossips both carry one.
template <class Io, class Message>
void TransferPartialResult(Io& io, Message& message);

/// Per-query traffic accounting (the three byte series of Figure 6).
struct QueryTraffic {
  std::uint64_t forwarded_list_bytes = 0;
  std::uint64_t returned_list_bytes = 0;
  std::uint64_t partial_result_bytes = 0;
  std::uint64_t forward_messages = 0;
  std::uint64_t return_messages = 0;
  std::uint64_t partial_result_messages = 0;

  static constexpr auto Counters() {
    using T = QueryTraffic;
    return std::tuple{Sum(&T::forwarded_list_bytes),
                      Sum(&T::returned_list_bytes),
                      Sum(&T::partial_result_bytes), Sum(&T::forward_messages),
                      Sum(&T::return_messages),
                      Sum(&T::partial_result_messages)};
  }

  std::uint64_t TotalBytes() const {
    return forwarded_list_bytes + returned_list_bytes + partial_result_bytes;
  }
};

/// End-of-cycle snapshot of what the querier sees.
struct QueryCycleSnapshot {
  /// Top-k by worst-case score at this cycle.
  std::vector<RankedItem> top_k;
  /// Distinct neighbours whose profiles have been used so far.
  std::size_t used_profiles = 0;
  /// True once every profile of the personal network has been used.
  bool complete = false;
};

/// Querier-side bookkeeping of one query.
class ActiveQuery {
 public:
  /// id: system-assigned; spec: the query; k: result size; expected:
  /// size of the querier's personal network at issue time (the number of
  /// profiles a complete processing must use).
  ActiveQuery(std::uint64_t id, QuerySpec spec, int k, std::size_t expected);

  std::uint64_t id() const { return id_; }
  const QuerySpec& spec() const { return spec_; }

  /// Enqueues a partial result received during the current cycle, in any
  /// order of `arrival`. Once the query is finalized (the completion
  /// EndOfCycle ran and the NRA was drained), late arrivals — reachable
  /// when delivery lags behind the cycle that completed the query — are
  /// counted and dropped instead of silently accumulating in an inbox
  /// nobody drains.
  void DeliverPartialResult(PartialResultMessage message);

  /// True once the completion snapshot was recorded; later partial results
  /// are dropped.
  bool finalized() const { return finalized_; }

  /// Cycles after issue at which the first REMOTE partial result arrived
  /// (the local result computed at issue time does not count); -1 until one
  /// arrives. The serving harness's time-to-first-result metric.
  std::int64_t first_result_cycle() const { return first_result_cycle_; }

  /// Partial results that arrived after finalization and were dropped.
  std::uint64_t late_results_dropped() const { return late_results_dropped_; }

  /// Ends the cycle: feeds queued lists into the NRA in arrival order,
  /// refreshes the top-k and appends a snapshot. `complete` signals that no
  /// remaining list for this query exists anywhere in the system (on
  /// completion the NRA is drained so the final ranking is exact).
  void EndOfCycle(bool complete);

  /// Snapshots, one per elapsed cycle (index 0 = the local result computed
  /// at issue time).
  const std::vector<QueryCycleSnapshot>& history() const { return history_; }

  /// Latest snapshot's top-k item ids.
  std::vector<ItemId> CurrentTopKItems() const;

  /// Distinct users whose profiles have contributed so far, in ascending
  /// id; EndOfCycle merges in the cycle's partial results.
  std::size_t NumUsedProfiles() const { return used_profiles_.size(); }
  const std::vector<UserId>& used_profiles() const { return used_profiles_; }

  /// Profiles a complete processing must use (= |Network(querier)|).
  std::size_t expected_profiles() const { return expected_; }

  QueryTraffic& traffic() { return traffic_; }
  const QueryTraffic& traffic() const { return traffic_; }

  IncrementalNra& nra() { return nra_; }
  const IncrementalNra& nra() const { return nra_; }

  /// Serializes the full querier-side state into a checkpoint.
  void SaveState(CheckpointWriter* out) const;

  /// Replaces this query's whole state with one saved by SaveState. Throws
  /// CheckpointError on malformed input.
  void LoadState(CheckpointReader* in);

 private:
  /// The SaveState/LoadState layout; `self` is const when saving.
  template <class Io, class Self>
  static void Transfer(Io& io, Self& self);

  std::uint64_t id_;
  QuerySpec spec_;
  std::size_t expected_;
  IncrementalNra nra_;
  std::vector<PartialResultMessage> inbox_;
  std::vector<UserId> used_profiles_;  ///< ascending
  std::vector<QueryCycleSnapshot> history_;
  QueryTraffic traffic_;
  bool finalized_ = false;
  std::uint64_t late_results_dropped_ = 0;
  std::int64_t first_result_cycle_ = -1;
};

}  // namespace p3q

#endif  // P3Q_CORE_QUERY_H_
