#include "serving/lifecycle.h"

#include <string>
#include <utility>

#include "core/p3q_system.h"
#include "eval/recall.h"
#include "obs/trace.h"
#include "sim/checkpoint.h"

namespace p3q {
namespace {

void TraceQueryEvent(P3QSystem* system, TraceEventKind kind,
                     std::uint64_t cycle, UserId querier,
                     std::uint64_t query_id, std::int64_t value) {
  Tracer* tracer = system->tracer();
  if (tracer == nullptr) return;
  TraceEvent event;
  event.cycle = cycle;
  event.kind = kind;
  event.node = querier;
  event.id = query_id;
  event.value = value;
  tracer->Emit(event);
}

}  // namespace

ServingTracker::ServingTracker(std::uint64_t slo_cycles, double recall_target)
    : slo_cycles_(slo_cycles), recall_target_(recall_target) {}

bool ServingTracker::MeetsRecallTarget(const P3QSystem& system,
                                       std::uint64_t query_id,
                                       const OpenQuery& open) const {
  if (open.reference.empty()) return true;  // nothing to retrieve
  return RecallAtK(system.query(query_id).CurrentTopKItems(),
                   open.reference) >= recall_target_;
}

void ServingTracker::Track(P3QSystem* system, std::uint64_t query_id,
                           std::uint64_t cycle, std::vector<ItemId> reference,
                           QueryLatencyStats* stats) {
  ++stats->issued;
  const UserId querier = system->query(query_id).spec().querier;
  TraceQueryEvent(system, TraceEventKind::kQueryIssued, cycle, querier,
                  query_id, 0);
  OpenQuery open;
  open.issue_cycle = cycle;
  open.querier = querier;
  open.reference = std::move(reference);
  // The querier's own stored profiles may already answer the query (the
  // eager mode finalizes immediately when the remaining list is empty, and
  // a small reference can be fully covered by the local result).
  if (system->QueryComplete(query_id) ||
      MeetsRecallTarget(*system, query_id, open)) {
    stats->RecordCompletion(0, slo_cycles_);
    TraceQueryEvent(system, TraceEventKind::kQueryCompleted, cycle, querier,
                    query_id, 0);
    system->ForgetQuery(query_id);
    return;
  }
  open_.emplace(query_id, std::move(open));
}

void ServingTracker::Poll(P3QSystem* system, std::uint64_t cycle,
                          QueryLatencyStats* stats) {
  for (auto it = open_.begin(); it != open_.end();) {
    const std::uint64_t query_id = it->first;
    OpenQuery& open = it->second;
    const ActiveQuery& query = system->query(query_id);
    if (!open.first_result_recorded && query.first_result_cycle() >= 0) {
      open.first_result_recorded = true;
      stats->RecordFirstResult(
          static_cast<std::uint64_t>(query.first_result_cycle()));
      TraceQueryEvent(system, TraceEventKind::kQueryFirstResult, cycle,
                      open.querier, query_id, query.first_result_cycle());
    }
    if (system->QueryComplete(query_id) ||
        MeetsRecallTarget(*system, query_id, open)) {
      stats->RecordCompletion(cycle - open.issue_cycle, slo_cycles_);
      TraceQueryEvent(system, TraceEventKind::kQueryCompleted, cycle,
                      open.querier, query_id,
                      static_cast<std::int64_t>(cycle - open.issue_cycle));
      system->ForgetQuery(query_id);
      it = open_.erase(it);
    } else {
      ++it;
    }
  }
}

template <class Io, class Self>
void ServingTracker::Transfer(Io& io, Self& self, const P3QSystem* system) {
  io.U64(self.slo_cycles_);
  io.F64(self.recall_target_);
  io.Map(self.open_, 29, "serving tracker query ids out of order",
         [&](std::uint64_t query_id, auto& open) {
           if constexpr (Io::kLoading) {
             if (!system->HasQuery(query_id)) {
               throw CheckpointError("serving tracker query id " +
                                     std::to_string(query_id) +
                                     " names no live query");
             }
           }
           io.U64(open.issue_cycle);
           io.User(open.querier, "querier");
           io.Bool(open.first_result_recorded);
           io.Vector(open.reference, 4, [&](auto& item) { io.U32(item); });
         });
  io.Sentinel("serving tracker");
}

void ServingTracker::SaveState(CheckpointWriter* out) const {
  Transfer(*out, *this, nullptr);
}

void ServingTracker::LoadState(CheckpointReader* in, const P3QSystem& system) {
  Transfer(*in, *this, &system);
}

void ServingTracker::Abandon(P3QSystem* system, std::uint64_t cycle,
                             QueryLatencyStats* stats) {
  for (const auto& [query_id, open] : open_) {
    ++stats->abandoned;
    TraceQueryEvent(system, TraceEventKind::kQueryAbandoned, cycle,
                    open.querier, query_id,
                    static_cast<std::int64_t>(cycle - open.issue_cycle));
    system->ForgetQuery(query_id);
  }
  open_.clear();
}

}  // namespace p3q
