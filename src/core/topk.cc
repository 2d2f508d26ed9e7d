#include "core/topk.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>

#include "sim/checkpoint.h"

namespace p3q {
namespace {

/// The ranking order: worst case descending, then best case descending,
/// then item ascending. Items are unique, so the order is total and every
/// prefix of it is independent of the candidates' storage order.
bool RankedBefore(const RankedItem& a, const RankedItem& b) {
  if (a.worst != b.worst) return a.worst > b.worst;
  if (a.best != b.best) return a.best > b.best;
  return a.item < b.item;
}

}  // namespace

IncrementalNra::IncrementalNra(int k) : k_(k < 1 ? 1 : k) {}

void IncrementalNra::Reserve(std::size_t lists, std::size_t entries) {
  lists_.reserve(lists_.size() + lists);
  entries_.reserve(entries_.size() + entries);
}

void IncrementalNra::AddList(std::span<const ItemScore> entries) {
#ifndef NDEBUG
  // Precondition: scores descending, items unique within a list.
  for (std::size_t i = 1; i < entries.size(); ++i) {
    assert(entries[i - 1].second >= entries[i].second);
  }
#endif
  List list;
  list.begin = entries_.size();
  entries_.insert(entries_.end(), entries.begin(), entries.end());
  list.end = entries_.size();
  list.next = list.begin;
  lists_.push_back(list);
}

std::size_t IncrementalNra::Probe(ItemId item) const {
  // Fibonacci hashing, as in UserMap (common/user_map.h).
  const std::size_t mask = index_.size() - 1;
  std::size_t i = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(item) * 0x9e3779b97f4a7c15ull) >>
      index_shift_);
  while (index_[i] != kNoCandidate && candidates_[index_[i]].item != item) {
    i = (i + 1) & mask;
  }
  return i;
}

std::uint32_t IncrementalNra::CandidateOf(ItemId item) {
  if (2 * (candidates_.size() + 1) > index_.size()) {
    const std::size_t slots = index_.empty() ? 16 : 2 * index_.size();
    index_.assign(slots, kNoCandidate);
    index_shift_ = 64 - std::countr_zero(slots);
    for (std::uint32_t c = 0; c < candidates_.size(); ++c) {
      index_[Probe(candidates_[c].item)] = c;
    }
  }
  std::uint32_t& slot = index_[Probe(item)];
  if (slot == kNoCandidate) {
    slot = static_cast<std::uint32_t>(candidates_.size());
    candidates_.push_back(Candidate{item, 0});
  }
  return slot;
}

void IncrementalNra::ConsumeEntry(std::uint32_t idx) {
  List& list = lists_[idx];
  const auto [item, score] = entries_[list.next];
  list.last_seen = score;
  ++list.next;
  const std::uint32_t c = CandidateOf(item);
  candidates_[c].worst += score;
  seen_.push_back(Seen{c, idx});
  ++total_scanned_;
}

std::uint64_t IncrementalNra::ActiveTail() const {
  std::uint64_t tail = 0;
  for (const List& list : lists_) {
    if (list.Exhausted()) continue;
    if (list.last_seen == kUnknown) return kUnknown;
    tail += list.last_seen;
  }
  return tail;
}

std::vector<RankedItem> IncrementalNra::Ranked(std::uint64_t tail) const {
  // best = worst + (bound of every active list the item was NOT seen in)
  //      = worst + tail - sum(last_seen of active lists it WAS seen in).
  std::vector<RankedItem> ranked(candidates_.size());
  for (std::size_t c = 0; c < candidates_.size(); ++c) {
    ranked[c] = RankedItem{candidates_[c].item, candidates_[c].worst,
                           candidates_[c].worst + tail};
  }
  for (const Seen& seen : seen_) {
    const List& list = lists_[seen.list];
    if (!list.Exhausted()) ranked[seen.candidate].best -= list.last_seen;
  }
  return ranked;
}

bool IncrementalNra::StopConditionHolds() const {
  const std::uint64_t tail = ActiveTail();
  if (tail == kUnknown) return false;  // an unscanned list bounds nothing
  if (candidates_.size() <= static_cast<std::size_t>(k_)) {
    // Fewer candidates than k: final only when no list can produce more.
    return tail == 0;
  }
  // Only the k-th worst case and the best case of the rest matter, and
  // the total order fixes both.
  std::vector<RankedItem> all = Ranked(tail);
  const auto kth = all.begin() + (k_ - 1);
  std::nth_element(all.begin(), kth, all.end(), RankedBefore);
  // `tail` also upper-bounds any item never seen in any list (Fagin's
  // threshold); the paper's heap-only condition implicitly relies on it.
  std::uint64_t max_other_best = tail;
  for (auto it = kth + 1; it != all.end(); ++it) {
    max_other_best = std::max(max_other_best, it->best);
  }
  return kth->worst >= max_other_best;
}

bool IncrementalNra::Converged() const { return StopConditionHolds(); }

std::size_t IncrementalNra::Process() {
  const std::size_t before = total_scanned_;
  if (StopConditionHolds()) return 0;

  // The paper's global cursor rule — new lists scan from rank 1, parked
  // lists rejoin when the cursor reaches where they stopped — advances, at
  // each position, the cohort of non-exhausted lists that started at or
  // before it. A list joins the front of the cohort at its start position
  // and survivors keep their order, so a cohort is ordered by start
  // position descending, then list index: `order`'s order. The lists that
  // joined and survived are the window [first, last) of `order`.
  auto start = [this](std::uint32_t idx) {
    return lists_[idx].next - lists_[idx].begin;
  };
  std::vector<std::uint32_t> order;
  for (std::uint32_t idx = 0; idx < lists_.size(); ++idx) {
    if (!lists_[idx].Exhausted()) order.push_back(idx);
  }
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const std::size_t sa = start(a), sb = start(b);
              if (sa != sb) return sa > sb;
              return a < b;
            });
  std::size_t first = order.size();
  std::size_t last = order.size();
  std::size_t pos = 0;
  std::size_t sweeps = 0;
  std::size_t next_check = 1;
  while (first > 0 || last > first) {
    // Without survivors the cursor jumps to the next parked list's start.
    if (last == first) pos = start(order[first - 1]);
    while (first > 0 && start(order[first - 1]) <= pos) --first;
    std::size_t kept = first;
    for (std::size_t i = first; i < last; ++i) {
      ConsumeEntry(order[i]);
      if (!lists_[order[i]].Exhausted()) order[kept++] = order[i];
    }
    last = kept;
    ++sweeps;
    // Algorithm 4 re-evaluates the stop condition after every position; we
    // check at geometrically spaced sweeps (1, 2, 4, ...), which bounds the
    // extra scanning by 2x while keeping the check cost off the hot path.
    if (sweeps >= next_check) {
      next_check *= 2;
      if (StopConditionHolds()) break;
    }
    ++pos;
  }
  return total_scanned_ - before;
}

std::size_t IncrementalNra::DrainAll() {
  const std::size_t before = total_scanned_;
  for (std::uint32_t idx = 0; idx < lists_.size(); ++idx) {
    while (!lists_[idx].Exhausted()) ConsumeEntry(idx);
  }
  return total_scanned_ - before;
}

void IncrementalNra::SaveState(CheckpointWriter* out) const {
  out->U32(static_cast<std::uint32_t>(k_));
  out->U64(total_scanned_);
  out->U64(lists_.size());
  for (const List& list : lists_) {
    out->U64(list.end - list.begin);
    for (std::size_t e = list.begin; e < list.end; ++e) {
      out->U32(entries_[e].first);
      out->U32(entries_[e].second);
    }
    out->U64(list.next - list.begin);
    out->U64(list.last_seen);
  }
  // Each candidate's seen lists in consumption order: the log bucketed by
  // candidate (a stable counting sort).
  const std::size_t n = candidates_.size();
  std::vector<std::size_t> offset(n + 1, 0);
  for (const Seen& seen : seen_) ++offset[seen.candidate + 1];
  std::partial_sum(offset.begin(), offset.end(), offset.begin());
  std::vector<std::uint32_t> seen_lists(seen_.size());
  std::vector<std::size_t> fill(offset.begin(), offset.end() - 1);
  for (const Seen& seen : seen_) seen_lists[fill[seen.candidate]++] = seen.list;
  // Candidates in ascending item order so the encoding is deterministic
  // regardless of the order they were first seen in.
  std::vector<std::uint32_t> by_item(n);
  std::iota(by_item.begin(), by_item.end(), 0u);
  std::sort(by_item.begin(), by_item.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return candidates_[a].item < candidates_[b].item;
            });
  out->U64(n);
  for (std::uint32_t c : by_item) {
    out->U32(candidates_[c].item);
    out->U64(candidates_[c].worst);
    out->U64(offset[c + 1] - offset[c]);
    for (std::size_t s = offset[c]; s < offset[c + 1]; ++s) {
      out->U32(seen_lists[s]);
    }
  }
}

IncrementalNra IncrementalNra::LoadState(CheckpointReader* in) {
  IncrementalNra nra(static_cast<int>(in->U32()));
  nra.total_scanned_ = in->U64();
  const std::uint64_t num_lists = in->Count(24);
  nra.lists_.reserve(static_cast<std::size_t>(num_lists));
  for (std::uint64_t i = 0; i < num_lists; ++i) {
    List list;
    list.begin = nra.entries_.size();
    const std::uint64_t num_entries = in->Count(8);
    for (std::uint64_t e = 0; e < num_entries; ++e) {
      const ItemId item = in->U32();
      const std::uint32_t score = in->U32();
      nra.entries_.emplace_back(item, score);
    }
    list.end = nra.entries_.size();
    const std::uint64_t next_pos = in->U64();
    list.last_seen = in->U64();
    if (next_pos > num_entries) {
      throw CheckpointError(
          "corrupt checkpoint: NRA list cursor past the list's end");
    }
    list.next = list.begin + static_cast<std::size_t>(next_pos);
    nra.lists_.push_back(list);
  }
  nra.entries_.shrink_to_fit();
  const std::uint64_t num_candidates = in->Count(20);
  nra.candidates_.reserve(static_cast<std::size_t>(num_candidates));
  for (std::uint64_t c = 0; c < num_candidates; ++c) {
    const ItemId item = in->U32();
    const std::uint32_t cand = nra.CandidateOf(item);
    if (cand != c) {
      throw CheckpointError("corrupt checkpoint: NRA candidate listed twice");
    }
    nra.candidates_[cand].worst = in->U64();
    const std::uint64_t num_seen = in->Count(4);
    for (std::uint64_t s = 0; s < num_seen; ++s) {
      const std::uint32_t idx = in->U32();
      if (idx >= nra.lists_.size()) {
        throw CheckpointError(
            "corrupt checkpoint: NRA candidate references an unknown list");
      }
      nra.seen_.push_back(Seen{cand, idx});
    }
  }
  return nra;
}

std::vector<RankedItem> IncrementalNra::TopK() const {
  // Display tail: bound from the lists scanned so far (unscanned lists
  // cannot be accounted; Converged() is what certifies finality).
  std::uint64_t tail = 0;
  for (const List& list : lists_) {
    if (!list.Exhausted() && list.last_seen != kUnknown) tail += list.last_seen;
  }
  std::vector<RankedItem> ranked = Ranked(tail);
  const std::size_t n = std::min(ranked.size(), static_cast<std::size_t>(k_));
  const auto top = ranked.begin() + static_cast<std::ptrdiff_t>(n);
  std::partial_sort(ranked.begin(), top, ranked.end(), RankedBefore);
  // Query snapshots keep the answer for the query's life: exact capacity.
  return std::vector<RankedItem>(ranked.begin(), top);
}

}  // namespace p3q
