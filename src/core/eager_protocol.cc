#include "core/eager_protocol.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "core/p3q_system.h"
#include "obs/trace.h"
#include "sim/checkpoint.h"

namespace p3q {
namespace {

/// Wire size of a forwarded query gossip: the remaining list, the query's
/// tags (16 B strings on the wire) and the querier id.
std::size_t ForwardBytes(const EagerTask& task) {
  return task.remaining.size() * kBytesPerUserId + task.tags.size() * 16 +
         kBytesPerUserId;
}

}  // namespace

EagerProtocol::EagerProtocol(P3QSystem* system) : system_(system) {}

PartialResultMessage EagerProtocol::BuildPartialResult(
    const std::vector<const Profile*>& profiles,
    const std::vector<UserId>& owners, const std::vector<TagId>& tags) {
  std::unordered_map<ItemId, std::uint32_t> scores;
  for (const Profile* profile : profiles) {
    for (const auto& [item, score] : profile->ScoreQuery(tags)) {
      scores[item] += score;
    }
  }
  PartialResultMessage message;
  message.entries.assign(scores.begin(), scores.end());
  std::sort(message.entries.begin(), message.entries.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  message.used_profiles = owners;
  return message;
}

std::uint64_t EagerProtocol::IssueQuery(const QuerySpec& spec) {
  const std::uint64_t id = next_id_++;
  P3QNode& querier = system_->node(spec.querier);

  QueryState state;
  state.query = std::make_unique<ActiveQuery>(
      id, spec, system_->config().top_k, querier.network().size());
  state.reached.insert(spec.querier);

  // Algorithm 2 line 3: process Q with the locally stored profiles first.
  const std::vector<const ProfilePtr*> stored =
      querier.network().StoredProfiles();
  if (!stored.empty()) {
    std::vector<const Profile*> profiles;
    std::vector<UserId> owners;
    profiles.reserve(stored.size());
    owners.reserve(stored.size());
    for (const ProfilePtr* p : stored) {
      profiles.push_back(p->get());
      owners.push_back((*p)->owner());
    }
    state.query->DeliverPartialResult(
        BuildPartialResult(profiles, owners, spec.tags));
  }

  // Remaining list: network members whose profiles are not stored.
  std::vector<UserId> remaining = querier.network().MembersWithoutProfile();
  const bool complete = remaining.empty();
  if (!complete) {
    EagerTask task;
    task.query_id = id;
    task.querier = spec.querier;
    task.tags = spec.tags;
    task.remaining = std::move(remaining);
    task.epoch = next_epoch_++;
    querier.tasks().emplace(id, std::move(task));
    state.active_tasks = 1;
  }
  state.query->EndOfCycle(complete);  // cycle-0 snapshot (local result)
  state.finalized = complete;
  state_.emplace(id, std::move(state));
  return id;
}

UserId EagerProtocol::SelectDestination(const P3QNode* initiator,
                                        const EagerTask& task, Rng* rng) {
  const Network& net = system_->network();
  // Remaining-list members that are personal-network neighbours, by
  // descending timestamp (Algorithm 3 line 5), then the rest in random
  // order. The first online candidate wins; the number of unresponsive
  // contacts tried is bounded per cycle.
  struct Scored {
    UserId user;
    std::uint32_t timestamp;
  };
  std::vector<Scored> neighbours;
  std::vector<UserId> others;
  const PersonalNetwork& network = initiator->network();
  for (UserId w : task.remaining) {
    const NetworkEntry* e = network.Find(w);
    if (e != nullptr) {
      neighbours.push_back(Scored{w, network.Timestamp(*e)});
    } else {
      others.push_back(w);
    }
  }
  std::sort(neighbours.begin(), neighbours.end(),
            [](const Scored& a, const Scored& b) {
              if (a.timestamp != b.timestamp) return a.timestamp > b.timestamp;
              return a.user < b.user;
            });
  rng->Shuffle(&others);

  int attempts_left = system_->config().offline_retry + 1;
  for (const Scored& s : neighbours) {
    if (net.IsOnline(s.user)) return s.user;
    if (--attempts_left <= 0) return kInvalidUser;
  }
  for (UserId w : others) {
    if (net.IsOnline(w)) return w;
    if (--attempts_left <= 0) return kInvalidUser;
  }
  return kInvalidUser;
}

bool EagerProtocol::PlanGossip(const P3QNode* node, const EagerTask& task,
                               const PlanContext& ctx,
                               TaskGossipMessage* message) {
  const UserId dest_id = SelectDestination(node, task, ctx.rng);
  if (dest_id == kInvalidUser) return false;  // every candidate offline: stall
  const P3QNode* dest = &system_->node(dest_id);

  PlannedGossip g;
  g.query_id = task.query_id;
  g.dest = dest_id;
  g.epoch = task.epoch;
  g.generation = task.generation;
  g.consumed = task.remaining.size();
  g.fwd_bytes = ForwardBytes(task);

  // Destination prunes the list with the (frozen) profiles she can serve
  // (Algorithm 3 line 18) and processes her share of the query.
  std::vector<UserId> found_owners;
  std::vector<const Profile*> found_profiles;  // borrowed from frozen state
  std::vector<UserId> rest;
  for (UserId w : task.remaining) {
    const Profile* p = dest->FindUsableProfile(w).get();
    if (p != nullptr) {
      found_owners.push_back(w);
      found_profiles.push_back(p);
    } else {
      rest.push_back(w);
    }
  }
  if (!found_owners.empty()) {
    g.partial = BuildPartialResult(found_profiles, found_owners, task.tags);
    g.has_partial = true;
  }

  // Split the pruned list: α back to the initiator, 1-α kept by the
  // destination as her own task (Algorithm 3 lines 19-21).
  ctx.rng->Shuffle(&rest);
  const std::size_t n_returned = static_cast<std::size_t>(
      std::llround(system_->config().alpha * static_cast<double>(rest.size())));
  g.returned.assign(rest.begin(),
                    rest.begin() + static_cast<std::ptrdiff_t>(n_returned));
  g.kept.assign(rest.begin() + static_cast<std::ptrdiff_t>(n_returned),
                rest.end());

  // The piggybacked lazy-style maintenance (Algorithm 3 lines 6, 12, 24):
  // planned here (the expensive screening), committed with the gossip.
  Metrics& traffic = system_->network().ShardTraffic(ctx.shard);
  g.exchange = LazyProtocol::PlanProfileExchange(system_, node->id(), dest_id,
                                                ctx.rng, &traffic);

  // Wire costs are recorded at SEND time, like all plan-phase traffic: a
  // message that is later dropped or discarded as stale still burned the
  // bandwidth. (The querier-side QueryTraffic bookkeeping stays at commit
  // time — it counts what the querier actually received.)
  traffic.Record(MessageType::kEagerQueryForward, g.fwd_bytes);
  traffic.Record(MessageType::kEagerQueryReturn,
                 g.returned.size() * kBytesPerUserId + kBytesPerUserId);
  if (g.has_partial) {
    traffic.Record(MessageType::kPartialResult, g.partial.WireBytes());
  }
  if (Tracer* tracer = system_->tracer(); tracer != nullptr) {
    TraceEvent event;
    event.cycle = ctx.cycle;
    event.kind = TraceEventKind::kGossipPlanned;
    event.node = node->id();
    event.peer = g.dest;
    event.id = g.query_id;
    event.value = static_cast<std::int64_t>(g.consumed);
    tracer->EmitShard(ctx.shard, event);
  }
  message->gossips.push_back(std::move(g));
  return true;
}

void EagerProtocol::BeginCycle(std::uint64_t /*cycle*/) {
  participants_.clear();
}

bool EagerProtocol::ActiveInCycle(UserId node) const {
  // Read-only probe, safe from plan threads; a task can appear on a node
  // only through a commit (sequential), never mid-plan, and only the
  // node's own commit removes one — so the answer cannot flip to false
  // between a node's plan and its commit.
  return !system_->node(node).tasks().empty();
}

void EagerProtocol::PlanCycle(UserId node_id, const PlanContext& ctx) {
  // The node's own tasks are owner-private plan state (like the probe memo
  // in the lazy mode): only this node's shard thread touches them here.
  P3QNode& node = system_->node(node_id);
  if (node.tasks().empty()) return;

  // Every non-empty task this node holds gossips once per cycle, in
  // query-id order (tasks created during this cycle act from the next one)
  // — unless a gossip of the task is still in flight, in which case the
  // owner waits for the reply until the re-issue deadline passes.
  std::vector<std::uint64_t> qids;
  qids.reserve(node.tasks().size());
  for (const auto& [qid, task] : node.tasks()) {
    if (!task.remaining.empty()) qids.push_back(qid);
  }
  std::sort(qids.begin(), qids.end());

  // With a finite eager_gossip_budget the node plans at most that many
  // gossips this cycle; the scan starts at a cycle-rotated offset so no
  // query id is structurally starved while the node is over budget.
  const int budget = system_->config().eager_gossip_budget;
  const std::size_t start =
      budget > 0 ? static_cast<std::size_t>(ctx.cycle % qids.size()) : 0;
  int planned = 0;

  auto message = std::make_unique<TaskGossipMessage>();
  for (std::size_t i = 0; i < qids.size(); ++i) {
    if (budget > 0 && planned >= budget) break;
    const std::uint64_t qid = qids[(start + i) % qids.size()];
    EagerTask& task = node.tasks().at(qid);
    if (task.in_flight) {
      if (ctx.cycle < task.in_flight_until) continue;  // awaiting the reply
      // Deadline passed: assume the message lost, supersede it (a late
      // arrival with the old generation is discarded) and re-issue.
      ++task.generation;
      task.in_flight = false;
      ++shard_reissues_[ctx.shard];
    }
    if (PlanGossip(&node, task, ctx, message.get())) {
      ++planned;
      task.in_flight = true;
      task.in_flight_until = ctx.cycle + 1 +
                             static_cast<std::uint64_t>(
                                 system_->config().eager_retry_cycles);
    }
  }
  if (message->gossips.size() > 1) {
    // The rotated scan can plan out of id order; restore it so the
    // message's gossips commit in query-id order like the unbudgeted path.
    std::sort(message->gossips.begin(), message->gossips.end(),
              [](const PlannedGossip& a, const PlannedGossip& b) {
                return a.query_id < b.query_id;
              });
  }
  if (!message->gossips.empty()) ctx.Send(std::move(message));
}

void EagerProtocol::EndPlan(std::uint64_t /*cycle*/) {
  system_->network().MergeShardTraffic();
  for (std::uint64_t& reissues : shard_reissues_) {
    timeout_reissues_ += reissues;
    reissues = 0;
  }
}

void EagerProtocol::CommitGossip(P3QNode* node, const CommitContext& ctx,
                                 PlannedGossip* g) {
  const auto trace_stale = [&] {
    ++stale_messages_dropped_;
    if (ctx.tracing()) {
      TraceEvent event;
      event.cycle = ctx.cycle;
      event.kind = TraceEventKind::kMessageStale;
      event.node = node->id();
      event.peer = g->dest;
      event.id = g->query_id;
      event.value = static_cast<std::int64_t>(ctx.cycle - ctx.send_cycle);
      ctx.Emit(event);
    }
  };
  const auto state_it = state_.find(g->query_id);
  if (state_it == state_.end()) {
    // The querier's state was forgotten while the gossip was in flight.
    trace_stale();
    return;
  }
  const auto it = node->tasks().find(g->query_id);
  if (it == node->tasks().end() || it->second.epoch != g->epoch ||
      it->second.generation != g->generation) {
    // The task this gossip belonged to is gone: a timeout re-issue
    // superseded it, it completed, or it died and was recreated from
    // another sender's kept portion (fresh epoch). Discard so nothing is
    // double-applied against the wrong incarnation.
    trace_stale();
    return;
  }
  EagerTask& task = it->second;
  task.in_flight = false;  // the reply arrived; the task may gossip again
  QueryState& state = state_it->second;

  participants_.insert(node->id());
  participants_.insert(g->dest);

  // Forward Q and the remaining list (wire cost was paid at send time).
  state.query->traffic().forwarded_list_bytes += g->fwd_bytes;
  state.query->traffic().forward_messages += 1;
  state.reached.insert(g->dest);

  // The destination's share of the query.
  if (g->has_partial) {
    const std::size_t bytes = g->partial.WireBytes();
    state.query->traffic().partial_result_bytes += bytes;
    state.query->traffic().partial_result_messages += 1;
    state.query->DeliverPartialResult(std::move(g->partial));
  }

  // The kept portion becomes (or extends) the destination's task.
  if (!g->kept.empty()) {
    P3QNode& dest = system_->node(g->dest);
    auto [dit, created] = dest.tasks().try_emplace(g->query_id);
    if (created) {
      dit->second.query_id = g->query_id;
      dit->second.querier = task.querier;
      dit->second.tags = task.tags;
      dit->second.epoch = next_epoch_++;
      ++state.active_tasks;
    }
    dit->second.remaining.insert(dit->second.remaining.end(), g->kept.begin(),
                                 g->kept.end());
  }

  // The returned portion replaces the consumed entries of this node's task.
  // Entries other commits appended after planning are preserved — only
  // appends can have happened to this incarnation (the epoch/generation
  // gate above rules everything else out), so they form the tail past
  // `consumed`.
  const std::size_t ret_bytes =
      g->returned.size() * kBytesPerUserId + kBytesPerUserId;
  state.query->traffic().returned_list_bytes += ret_bytes;
  state.query->traffic().return_messages += 1;
  std::vector<UserId> merged = std::move(g->returned);
  merged.insert(merged.end(),
                task.remaining.begin() +
                    static_cast<std::ptrdiff_t>(
                        std::min(g->consumed, task.remaining.size())),
                task.remaining.end());
  task.remaining = std::move(merged);

  // Timestamps and the piggybacked lazy-style maintenance (Algorithm 3
  // lines 6, 12, 24).
  node->network().ResetTimestamp(g->dest);
  system_->node(g->dest).network().ResetTimestamp(node->id());
  LazyProtocol::CommitProfileExchange(system_, g->exchange,
                                      &system_->network().metrics());

  if (ctx.tracing()) {
    TraceEvent event;
    event.cycle = ctx.cycle;
    event.kind = TraceEventKind::kGossipCommitted;
    event.node = node->id();
    event.peer = g->dest;
    event.id = g->query_id;
    event.value = static_cast<std::int64_t>(ctx.cycle - ctx.send_cycle);
    ctx.Emit(event);
  }

  if (task.remaining.empty()) {
    node->tasks().erase(it);
    --state.active_tasks;
  }
}

void EagerProtocol::CommitMessage(UserId sender, DeliveryMessage& message,
                                  const CommitContext& ctx) {
  auto& msg = static_cast<TaskGossipMessage&>(message);
  P3QNode* node = &system_->node(sender);
  for (PlannedGossip& g : msg.gossips) CommitGossip(node, ctx, &g);
}

void EagerProtocol::EndCycle(std::uint64_t /*cycle*/, Rng* rng) {
  // The "wave of refreshments": every user who took part in query gossip
  // this cycle also runs one lazy-style top-layer maintenance exchange at
  // the eager frequency ("maintain personal network as in lazy mode",
  // Algorithm 3 lines 12/24) — this is what makes the eager mode refresh
  // the querier's neighbourhood so effectively (Figure 9). Sequential, in
  // ascending user order, off the cycle's dedicated stream.
  std::vector<UserId> wave(participants_.begin(), participants_.end());
  std::sort(wave.begin(), wave.end());
  for (UserId u : wave) {
    if (!system_->network().IsOnline(u)) continue;
    P3QNode& node = system_->node(u);
    const UserId partner = node.network().OldestNeighbour();
    if (partner == kInvalidUser || !system_->network().IsOnline(partner)) {
      continue;
    }
    LazyProtocol::RunProfileExchange(system_, u, partner, rng);
    node.network().TouchGossiped(partner);
    system_->node(partner).network().ResetTimestamp(u);
  }
}

std::size_t EagerProtocol::PrepareCloseouts(std::uint64_t /*cycle*/) {
  closeouts_.clear();
  for (auto& [qid, state] : state_) {
    if (!state.finalized) closeouts_.push_back(&state);
  }
  return closeouts_.size();
}

void EagerProtocol::Closeout(std::size_t item) {
  // End of cycle: the querier integrates the partial results received
  // during this cycle and refreshes the query's top-k. The wave reads no
  // query state, so this may run beside it.
  QueryState& state = *closeouts_[item];
  const bool complete = state.active_tasks == 0;
  state.query->EndOfCycle(complete);
  state.finalized = complete;
}

std::vector<std::uint64_t> EagerProtocol::AllQueryIds() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(state_.size());
  for (const auto& [qid, state] : state_) ids.push_back(qid);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::uint64_t EagerProtocol::late_partial_results_dropped() const {
  std::uint64_t total = forgotten_late_results_;
  for (const auto& [qid, state] : state_) {
    total += state.query->late_results_dropped();
  }
  return total;
}

void EagerProtocol::Forget(std::uint64_t id) {
  QueryState& state = StateOrThrow(id);
  // Keep the drop total monotone across Forget (phase deltas subtract).
  forgotten_late_results_ += state.query->late_results_dropped();
  for (UserId u : state.reached) {
    system_->node(u).tasks().erase(id);
  }
  state_.erase(id);
}

EagerProtocol::QueryState& EagerProtocol::StateOrThrow(std::uint64_t id) {
  const auto it = state_.find(id);
  if (it == state_.end()) {
    throw std::out_of_range("unknown query id " + std::to_string(id) +
                            " (never issued, or already forgotten)");
  }
  return it->second;
}

const EagerProtocol::QueryState& EagerProtocol::StateOrThrow(
    std::uint64_t id) const {
  return const_cast<EagerProtocol*>(this)->StateOrThrow(id);
}

namespace {

void WritePartialResult(CheckpointWriter* out,
                        const PartialResultMessage& message) {
  out->U64(message.entries.size());
  for (const auto& [item, score] : message.entries) {
    out->U32(item);
    out->U32(score);
  }
  out->U64(message.used_profiles.size());
  for (UserId u : message.used_profiles) out->U32(u);
}

PartialResultMessage ReadPartialResult(CheckpointReader* in) {
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
  return message;
}

}  // namespace

void EagerProtocol::EncodeMessage(const DeliveryMessage& message,
                                  CheckpointWriter* out,
                                  ProfilePool* pool) const {
  const auto& gossip = static_cast<const TaskGossipMessage&>(message);
  out->U64(gossip.gossips.size());
  for (const PlannedGossip& g : gossip.gossips) {
    out->U64(g.query_id);
    out->U32(g.dest);
    out->U64(g.epoch);
    out->U32(g.generation);
    out->U64(g.consumed);
    out->U64(g.fwd_bytes);
    out->U8(g.has_partial ? 1 : 0);
    if (g.has_partial) WritePartialResult(out, g.partial);
    out->U64(g.returned.size());
    for (UserId u : g.returned) out->U32(u);
    out->U64(g.kept.size());
    for (UserId u : g.kept) out->U32(u);
    LazyProtocol::EncodeExchangePlan(g.exchange, out, pool);
  }
}

std::unique_ptr<DeliveryMessage> EagerProtocol::DecodeMessage(
    CheckpointReader* in, const ProfileTable& profiles) const {
  const std::size_t num_users = system_->NumUsers();
  auto message = std::make_unique<TaskGossipMessage>();
  const std::uint64_t num_gossips = in->Count(48);
  message->gossips.reserve(static_cast<std::size_t>(num_gossips));
  for (std::uint64_t i = 0; i < num_gossips; ++i) {
    PlannedGossip g;
    g.query_id = in->U64();
    g.dest = ReadUserId(in, num_users, "gossip destination");
    g.epoch = in->U64();
    g.generation = in->U32();
    g.consumed = static_cast<std::size_t>(in->U64());
    g.fwd_bytes = static_cast<std::size_t>(in->U64());
    g.has_partial = in->U8() != 0;
    if (g.has_partial) g.partial = ReadPartialResult(in);
    const std::uint64_t num_returned = in->Count(4);
    g.returned.reserve(static_cast<std::size_t>(num_returned));
    for (std::uint64_t r = 0; r < num_returned; ++r) {
      g.returned.push_back(ReadUserId(in, num_users, "returned-list user"));
    }
    const std::uint64_t num_kept = in->Count(4);
    g.kept.reserve(static_cast<std::size_t>(num_kept));
    for (std::uint64_t k = 0; k < num_kept; ++k) {
      g.kept.push_back(ReadUserId(in, num_users, "kept-list user"));
    }
    g.exchange = LazyProtocol::DecodeExchangePlan(in, profiles, num_users);
    message->gossips.push_back(std::move(g));
  }
  return message;
}

void EagerProtocol::SaveState(CheckpointWriter* out) const {
  std::vector<std::uint64_t> ids;
  ids.reserve(state_.size());
  for (const auto& [id, state] : state_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  out->U64(ids.size());
  for (std::uint64_t id : ids) {
    const QueryState& state = state_.at(id);
    state.query->SaveState(out);
    std::vector<UserId> reached(state.reached.begin(), state.reached.end());
    std::sort(reached.begin(), reached.end());
    out->U64(reached.size());
    for (UserId u : reached) out->U32(u);
    out->I64(state.active_tasks);
    out->U8(state.finalized ? 1 : 0);
  }
  out->U64(timeout_reissues_);
  out->U64(stale_messages_dropped_);
  out->U64(forgotten_late_results_);
  out->U64(next_id_);
  out->U64(next_epoch_);
  out->Sentinel();
}

void EagerProtocol::LoadState(CheckpointReader* in) {
  // Participants and shard mailboxes are intra-cycle scratch — empty at
  // every barrier, so a freshly constructed protocol starts them empty.
  std::unordered_map<std::uint64_t, QueryState> loaded;
  const std::uint64_t num_queries = in->Count(64);
  std::uint64_t max_id = 0;
  std::uint64_t prev_id = 0;
  for (std::uint64_t q = 0; q < num_queries; ++q) {
    auto query = std::make_unique<ActiveQuery>(ActiveQuery::LoadState(in));
    const std::uint64_t id = query->id();
    if (q > 0 && id <= prev_id) {
      throw CheckpointError("eager query ids out of order in checkpoint");
    }
    prev_id = id;
    max_id = id;
    QueryState state;
    state.query = std::move(query);
    const std::uint64_t num_reached = in->Count(4);
    for (std::uint64_t r = 0; r < num_reached; ++r) {
      state.reached.insert(
          ReadUserId(in, system_->NumUsers(), "reached user"));
    }
    const std::int64_t active_tasks = in->I64();
    if (active_tasks < 0) {
      throw CheckpointError("eager query " + std::to_string(id) +
                            " has a negative active task count");
    }
    state.active_tasks = static_cast<int>(active_tasks);
    state.finalized = in->U8() != 0;
    loaded.emplace(id, std::move(state));
  }
  const std::uint64_t timeout_reissues = in->U64();
  const std::uint64_t stale_dropped = in->U64();
  const std::uint64_t forgotten_late = in->U64();
  const std::uint64_t next_id = in->U64();
  const std::uint64_t next_epoch = in->U64();
  in->Sentinel("eager protocol");
  if (num_queries > 0 && max_id >= next_id) {
    throw CheckpointError("eager query id " + std::to_string(max_id) +
                          " collides with the next-id allocator (" +
                          std::to_string(next_id) + ")");
  }
  state_ = std::move(loaded);
  participants_.clear();
  shard_reissues_.fill(0);
  timeout_reissues_ = timeout_reissues;
  stale_messages_dropped_ = stale_dropped;
  forgotten_late_results_ = forgotten_late;
  next_id_ = next_id;
  next_epoch_ = next_epoch;
}

}  // namespace p3q
