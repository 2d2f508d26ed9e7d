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
  // The cycle's owners join the used set in one merge.
  const auto used = static_cast<std::ptrdiff_t>(used_profiles_.size());
  for (const PartialResultMessage& message : inbox_) {
    used_profiles_.insert(used_profiles_.end(), message.used_profiles.begin(),
                          message.used_profiles.end());
    nra_.AddList(message.entries);
  }
  std::sort(used_profiles_.begin() + used, used_profiles_.end());
  std::inplace_merge(used_profiles_.begin(), used_profiles_.begin() + used,
                     used_profiles_.end());
  used_profiles_.erase(
      std::unique(used_profiles_.begin(), used_profiles_.end()),
      used_profiles_.end());
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

template <class Io, class Message>
void TransferPartialResult(Io& io, Message& message) {
  io.Vector(message.entries, 8, [&](auto& entry) {
    io.U32(entry.first);
    io.U32(entry.second);
  });
  io.Users(message.used_profiles, "used-profile owner");
}

template void TransferPartialResult(CheckpointWriter&,
                                    const PartialResultMessage&);
template void TransferPartialResult(CheckpointReader&, PartialResultMessage&);

template <class Io, class Self>
void ActiveQuery::Transfer(Io& io, Self& self) {
  io.U64(self.id_);
  io.User(self.spec_.querier, "querier");
  io.Vector(self.spec_.tags, 4, [&](auto& tag) { io.U32(tag); });
  io.U32(self.spec_.source_item);
  io.U64(self.expected_);
  if constexpr (Io::kLoading) {
    self.nra_ = IncrementalNra::LoadState(&io);
  } else {
    self.nra_.SaveState(&io);
  }
  // The inbox is drained by every EndOfCycle, so at a cycle barrier it is
  // empty — serialized anyway so the codec is total over the object.
  io.Vector(self.inbox_, 16,
            [&](auto& message) { TransferPartialResult(io, message); });
  io.AscendingUsers(self.used_profiles_, "used-profile owner");
  io.Vector(self.history_, 17, [&](auto& snapshot) {
    io.Vector(snapshot.top_k, 20, [&](auto& ranked) {
      io.U32(ranked.item);
      io.U64(ranked.worst);
      io.U64(ranked.best);
    });
    io.U64(snapshot.used_profiles);
    io.Bool(snapshot.complete);
  });
  p3q::Transfer(io, self.traffic_);
  io.Bool(self.finalized_);
  io.U64(self.late_results_dropped_);
  io.I64(self.first_result_cycle_);
}

void ActiveQuery::SaveState(CheckpointWriter* out) const {
  Transfer(*out, *this);
}

void ActiveQuery::LoadState(CheckpointReader* in) { Transfer(*in, *this); }

std::vector<ItemId> ActiveQuery::CurrentTopKItems() const {
  std::vector<ItemId> items;
  if (history_.empty()) return items;
  for (const RankedItem& r : history_.back().top_k) items.push_back(r.item);
  return items;
}

}  // namespace p3q
