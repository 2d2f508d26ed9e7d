// Incremental NRA top-k over asynchronously arriving partial result lists
// (Section 2.3, Algorithm 4 of the paper).
//
// Classic NRA (Fagin's No Random Access) scans all ranked lists round-robin
// from the start. In P3Q the lists trickle in over gossip cycles, so the
// paper adapts it: each invocation scans the newly received lists from rank
// one with a global cursor, and lists parked in earlier invocations rejoin
// the sweep when the cursor reaches the position where they stopped — which
// guarantees every list is scanned at most once over the whole processing.
// Candidates carry a worst-case score (sum of the scores actually seen) and
// a best-case score (worst case plus the last-seen value of every active
// list the item has not appeared in); scanning stops when the k-th
// worst-case dominates every other candidate's best case.
//
// Layout: a query's accumulator lives for the query's life and is freed on
// the serial serving path, so it is flat. Every list's entries sit in one
// buffer, grown to exact capacity once per batch of lists (Reserve). The
// candidates are a dense array behind an open-addressing item index, and
// every consumed entry appends one (candidate, list) pair to a single log,
// in consumption order: a candidate's seen lists are its pairs in log
// order, which is the order SaveState writes. Freeing an accumulator is
// five frees, whatever its size. tests/query_path_oracle_test.cc keeps the
// node-based accumulator this replaced as its oracle.
#ifndef P3Q_CORE_TOPK_H_
#define P3Q_CORE_TOPK_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace p3q {

class CheckpointWriter;  // sim/checkpoint.h
class CheckpointReader;  // sim/checkpoint.h

/// One candidate of the current top-k, with its NRA score interval.
struct RankedItem {
  ItemId item = kInvalidItem;
  std::uint64_t worst = 0;  ///< lower bound (sum of seen scores)
  std::uint64_t best = 0;   ///< upper bound
};

/// Incremental NRA accumulator.
///
/// Usage per gossip cycle: AddList() for every partial result received this
/// cycle (after one Reserve() for all of them), then Process() once, then
/// TopK() for the refreshed answer.
class IncrementalNra {
 public:
  explicit IncrementalNra(int k);

  /// Makes room for `lists` more lists holding `entries` entries in all, so
  /// that the AddList calls that follow fill buffers of exact capacity.
  void Reserve(std::size_t lists, std::size_t entries);

  /// Registers a partial result list: (item, score) pairs sorted by score
  /// descending, items unique. The entries are copied; the list is scanned
  /// lazily by Process().
  void AddList(std::span<const ItemScore> entries);

  /// Runs Algorithm 4: sweeps positions until the stop condition holds or
  /// every known list is exhausted. Returns the number of list entries
  /// consumed by this invocation.
  std::size_t Process();

  /// Consumes every remaining entry of every list, making worst == best ==
  /// exact for all candidates (used at query completion and by tests).
  std::size_t DrainAll();

  /// Current top-k, ranked by worst-case score (ties: higher best case,
  /// then smaller item id). May return fewer than k items early on.
  std::vector<RankedItem> TopK() const;

  /// True when the stop condition currently holds (top-k provably final
  /// given the lists seen so far).
  bool Converged() const;

  int k() const { return k_; }
  std::size_t num_lists() const { return lists_.size(); }
  std::size_t num_candidates() const { return candidates_.size(); }
  /// Total list entries consumed since construction (scan-depth metric).
  std::size_t total_entries_scanned() const { return total_scanned_; }

  /// Serializes the full accumulator state (lists with scan cursors,
  /// candidates, counters) into a checkpoint.
  void SaveState(CheckpointWriter* out) const;

  /// Reconstructs an accumulator saved with SaveState. Throws
  /// CheckpointError on malformed input: a list cursor past its list's end,
  /// a seen-list id past the list count, or an item listed twice.
  static IncrementalNra LoadState(CheckpointReader* in);

 private:
  /// One list: the entries [begin, end) of entries_, consumed up to next.
  struct List {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t next = 0;
    /// Score of the last consumed entry; kUnknown until the first
    /// consumption (an unscanned list bounds nothing).
    std::uint64_t last_seen = kUnknown;
    bool Exhausted() const { return next >= end; }
  };
  struct Candidate {
    ItemId item = kInvalidItem;
    std::uint64_t worst = 0;  ///< sum of the scores seen
  };
  /// One consumed entry: its candidate and the list it came from.
  struct Seen {
    std::uint32_t candidate = 0;
    std::uint32_t list = 0;
  };

  static constexpr std::uint64_t kUnknown = ~std::uint64_t{0};
  static constexpr std::uint32_t kNoCandidate = 0xffffffffu;

  /// Sum of last_seen over active (scanned, non-exhausted) lists; kUnknown
  /// when some non-exhausted list has not been scanned yet.
  std::uint64_t ActiveTail() const;

  /// Every candidate with its worst case and its exact best case given
  /// `tail`: worst + tail minus the last_seen of each active list it was
  /// seen in.
  std::vector<RankedItem> Ranked(std::uint64_t tail) const;

  /// Evaluates the stop condition (worst of k-th >= every non-top-k best).
  bool StopConditionHolds() const;

  /// Consumes the next entry of list `idx`.
  void ConsumeEntry(std::uint32_t idx);

  /// The candidate of `item`, added with worst 0 when new.
  std::uint32_t CandidateOf(ItemId item);

  /// Slot of `item` in index_, or the empty slot that ends its probe run.
  std::size_t Probe(ItemId item) const;

  int k_;
  std::vector<ItemScore> entries_;
  std::vector<List> lists_;
  std::vector<Candidate> candidates_;
  std::vector<Seen> seen_;
  /// Open addressing over a power-of-two table of candidate numbers
  /// (kNoCandidate when empty), at most half full.
  std::vector<std::uint32_t> index_;
  int index_shift_ = 64;  ///< 64 - log2(index_.size())
  std::size_t total_scanned_ = 0;
};

}  // namespace p3q

#endif  // P3Q_CORE_TOPK_H_
