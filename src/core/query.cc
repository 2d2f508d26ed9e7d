#include "core/query.h"

#include <algorithm>

#include "sim/checkpoint.h"

namespace p3q {

ActiveQuery::ActiveQuery(std::uint64_t id, QuerySpec spec, int k,
                         std::size_t expected)
    : id_(id), spec_(std::move(spec)), expected_(expected), nra_(k) {}

void ActiveQuery::DeliverPartialResult(PartialResultMessage message) {
  if (finalized_) {
    ++late_results_dropped_;
    return;
  }
  // Deliveries before the cycle-0 snapshot are the querier's own local
  // result; anything after comes from a remote collaborator, and the first
  // one marks time-to-first-result (history_.size() snapshots exist after
  // that many elapsed cycles, so it doubles as the cycles-since-issue lag).
  if (!history_.empty() && first_result_cycle_ < 0) {
    first_result_cycle_ = static_cast<std::int64_t>(history_.size());
  }
  inbox_.push_back(std::move(message));
}

void ActiveQuery::EndOfCycle(bool complete) {
  std::size_t entries = 0;
  for (const PartialResultMessage& message : inbox_) {
    entries += message.entries.size();
  }
  nra_.Reserve(inbox_.size(), entries);
  for (const PartialResultMessage& message : inbox_) {
    for (UserId u : message.used_profiles) used_profiles_.insert(u);
    nra_.AddList(message.entries);
  }
  inbox_.clear();
  if (complete) {
    // All partial lists have arrived: drain so worst == best == exact and
    // the final ranking matches the centralized reference ordering.
    nra_.DrainAll();
  } else {
    nra_.Process();
  }
  QueryCycleSnapshot snapshot;
  snapshot.top_k = nra_.TopK();
  snapshot.used_profiles = used_profiles_.size();
  snapshot.complete = complete;
  history_.push_back(std::move(snapshot));
  if (complete) finalized_ = true;
}

void ActiveQuery::SaveState(CheckpointWriter* out) const {
  out->U64(id_);
  out->U32(spec_.querier);
  out->U64(spec_.tags.size());
  for (TagId tag : spec_.tags) out->U32(tag);
  out->U32(spec_.source_item);
  out->U64(expected_);
  nra_.SaveState(out);
  // The inbox is drained by every EndOfCycle, so at a cycle barrier it is
  // empty — serialized anyway so the codec is total over the object.
  out->U64(inbox_.size());
  for (const PartialResultMessage& message : inbox_) {
    out->U64(message.entries.size());
    for (const auto& [item, score] : message.entries) {
      out->U32(item);
      out->U32(score);
    }
    out->U64(message.used_profiles.size());
    for (UserId u : message.used_profiles) out->U32(u);
  }
  std::vector<UserId> used(used_profiles_.begin(), used_profiles_.end());
  std::sort(used.begin(), used.end());
  out->U64(used.size());
  for (UserId u : used) out->U32(u);
  out->U64(history_.size());
  for (const QueryCycleSnapshot& snapshot : history_) {
    out->U64(snapshot.top_k.size());
    for (const RankedItem& r : snapshot.top_k) {
      out->U32(r.item);
      out->U64(r.worst);
      out->U64(r.best);
    }
    out->U64(snapshot.used_profiles);
    out->U8(snapshot.complete ? 1 : 0);
  }
  out->U64(traffic_.forwarded_list_bytes);
  out->U64(traffic_.returned_list_bytes);
  out->U64(traffic_.partial_result_bytes);
  out->U64(traffic_.forward_messages);
  out->U64(traffic_.return_messages);
  out->U64(traffic_.partial_result_messages);
  out->U8(finalized_ ? 1 : 0);
  out->U64(late_results_dropped_);
  out->I64(first_result_cycle_);
}

ActiveQuery ActiveQuery::LoadState(CheckpointReader* in) {
  const std::uint64_t id = in->U64();
  QuerySpec spec;
  spec.querier = in->U32();
  const std::uint64_t num_tags = in->Count(4);
  spec.tags.reserve(static_cast<std::size_t>(num_tags));
  for (std::uint64_t t = 0; t < num_tags; ++t) spec.tags.push_back(in->U32());
  spec.source_item = in->U32();
  const std::size_t expected = static_cast<std::size_t>(in->U64());
  IncrementalNra nra = IncrementalNra::LoadState(in);

  ActiveQuery query(id, std::move(spec), nra.k(), expected);
  query.nra_ = std::move(nra);
  const std::uint64_t num_inbox = in->Count(16);
  for (std::uint64_t m = 0; m < num_inbox; ++m) {
    PartialResultMessage message;
    const std::uint64_t num_entries = in->Count(8);
    message.entries.reserve(static_cast<std::size_t>(num_entries));
    for (std::uint64_t e = 0; e < num_entries; ++e) {
      const ItemId item = in->U32();
      const std::uint32_t score = in->U32();
      message.entries.emplace_back(item, score);
    }
    const std::uint64_t num_used = in->Count(4);
    message.used_profiles.reserve(static_cast<std::size_t>(num_used));
    for (std::uint64_t u = 0; u < num_used; ++u) {
      message.used_profiles.push_back(in->U32());
    }
    query.inbox_.push_back(std::move(message));
  }
  const std::uint64_t num_used = in->Count(4);
  for (std::uint64_t u = 0; u < num_used; ++u) {
    query.used_profiles_.insert(in->U32());
  }
  const std::uint64_t num_snapshots = in->Count(17);
  query.history_.reserve(static_cast<std::size_t>(num_snapshots));
  for (std::uint64_t s = 0; s < num_snapshots; ++s) {
    QueryCycleSnapshot snapshot;
    const std::uint64_t num_ranked = in->Count(20);
    snapshot.top_k.reserve(static_cast<std::size_t>(num_ranked));
    for (std::uint64_t r = 0; r < num_ranked; ++r) {
      RankedItem ranked;
      ranked.item = in->U32();
      ranked.worst = in->U64();
      ranked.best = in->U64();
      snapshot.top_k.push_back(ranked);
    }
    snapshot.used_profiles = static_cast<std::size_t>(in->U64());
    snapshot.complete = in->U8() != 0;
    query.history_.push_back(std::move(snapshot));
  }
  query.traffic_.forwarded_list_bytes = in->U64();
  query.traffic_.returned_list_bytes = in->U64();
  query.traffic_.partial_result_bytes = in->U64();
  query.traffic_.forward_messages = in->U64();
  query.traffic_.return_messages = in->U64();
  query.traffic_.partial_result_messages = in->U64();
  query.finalized_ = in->U8() != 0;
  query.late_results_dropped_ = in->U64();
  query.first_result_cycle_ = in->I64();
  return query;
}

std::vector<ItemId> ActiveQuery::CurrentTopKItems() const {
  std::vector<ItemId> items;
  if (history_.empty()) return items;
  for (const RankedItem& r : history_.back().top_k) items.push_back(r.item);
  return items;
}

}  // namespace p3q
