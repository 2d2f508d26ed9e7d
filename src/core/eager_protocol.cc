#include "core/eager_protocol.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

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

void RefreshWave::Add(UserId user) {
  if (user >= listed_.size()) listed_.resize(system_->NumUsers(), 0);
  if (listed_[user] != 0) return;
  listed_[user] = 1;
  participants_.push_back(user);
}

std::size_t RefreshWave::Prepare() {
  std::sort(participants_.begin(), participants_.end());
  for (const UserId u : participants_) listed_[u] = 0;
  for (ScreenedProposals& lane : lanes_) lane.clear();
  screens_.resize(participants_.size());
  return participants_.size();
}

void RefreshWave::Screen(std::size_t item, std::size_t worker) {
  const Network& net = system_->network();
  const UserId u = participants_[item];
  Screened& screened = screens_[item];
  screened = Screened{};
  if (!net.IsOnline(u)) return;
  const PersonalNetwork& network = system_->node(u).network();
  screened.kind = Screened::Kind::kNoPartner;
  screened.revision = network.Revision();
  screened.partner = network.OldestNeighbour();
  if (screened.partner == kInvalidUser) return;
  screened.partner_timestamp =
      network.Timestamp(*network.Find(screened.partner));
  screened.partner_revision =
      system_->node(screened.partner).network().Revision();
  if (!net.IsOnline(screened.partner)) return;
  screened.lane = static_cast<std::uint8_t>(worker);
  screened.kind = LazyProtocol::ScreenProfileExchange(
                      system_, u, screened.partner, &lanes_.at(worker),
                      &screened.exchange)
                      ? Screened::Kind::kScreened
                      : Screened::Kind::kSampled;
}

bool RefreshWave::Reusable(const Screened& screened,
                           const PersonalNetwork& network) const {
  if (screened.kind == Screened::Kind::kSampled ||
      network.Revision() != screened.revision) {
    return false;
  }
  if (screened.partner == kInvalidUser) return true;
  const NetworkEntry* entry = network.Find(screened.partner);
  return system_->node(screened.partner).network().Revision() ==
             screened.partner_revision &&
         entry != nullptr &&
         network.Timestamp(*entry) == screened.partner_timestamp;
}

void RefreshWave::Run(Rng* rng) {
  const Network& net = system_->network();
  Metrics* traffic = &system_->network().metrics();
  ProfileExchangePlan plan;
  for (std::size_t i = 0; i < participants_.size(); ++i) {
    const Screened& screened = screens_[i];
    if (screened.kind == Screened::Kind::kOffline) continue;
    const UserId u = participants_[i];
    PersonalNetwork& network = system_->node(u).network();
    if (Reusable(screened, network)) {
      if (screened.kind == Screened::Kind::kNoPartner) continue;
      LazyProtocol::DrawProfileExchange(system_, screened.exchange,
                                        lanes_[screened.lane], rng, traffic,
                                        &plan);
    } else {
      ++replans_;
      const UserId partner = network.OldestNeighbour();
      if (partner == kInvalidUser || !net.IsOnline(partner)) continue;
      LazyProtocol::PlanProfileExchange(system_, u, partner, rng, traffic,
                                        &plan);
    }
    LazyProtocol::CommitProfileExchange(system_, plan, traffic);
    plan.DropSnapshots();
    network.TouchGossiped(plan.b);
    system_->node(plan.b).network().ResetTimestamp(u);
  }
  participants_.clear();
}

void RefreshWave::Clear() {
  for (const UserId u : participants_) listed_[u] = 0;
  participants_.clear();
}

EagerProtocol::EagerProtocol(P3QSystem* system)
    : system_(system), wave_(system) {}

PartialResultMessage EagerProtocol::BuildPartialResult(
    const std::vector<const Profile*>& profiles, std::vector<UserId> owners,
    const std::vector<TagId>& tags) {
  // One hit buffer per thread: plan workers build partial results at once,
  // and the buffer keeps its capacity from one gossip to the next.
  thread_local std::vector<ItemScore> hits;
  PartialResultMessage message;
  message.entries = RankQueryScores(profiles, QueryTags(tags), &hits);
  message.used_profiles = std::move(owners);
  return message;
}

std::uint64_t EagerProtocol::IssueQuery(const QuerySpec& spec) {
  const std::uint64_t id = next_id_++;
  P3QNode& querier = system_->node(spec.querier);

  QueryState state;
  state.query = std::make_unique<ActiveQuery>(
      id, spec, system_->config().top_k, querier.network().size());
  state.reached.push_back(spec.querier);

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
        BuildPartialResult(profiles, std::move(owners), spec.tags));
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

  int attempts_left = kOfflineRetry + 1;
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
    g.partial =
        BuildPartialResult(found_profiles, std::move(found_owners), task.tags);
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
  LazyProtocol::PlanProfileExchange(system_, node->id(), dest_id, ctx.rng,
                                    &traffic, &g.exchange);

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

bool EagerProtocol::ActiveInCycle(UserId node) const {
  // Read-only probes, safe from plan threads: nothing changes liveness or
  // tasks during the plan. A task can appear on a node only through a
  // commit (sequential), and only the node's own commit removes one — so
  // the task probe cannot flip to false between a node's plan and its
  // commit.
  return system_->network().IsOnline(node) &&
         !system_->node(node).tasks().empty();
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
      task.in_flight_until =
          ctx.cycle + 1 + static_cast<std::uint64_t>(kEagerRetryCycles);
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

  wave_.Add(node->id());
  wave_.Add(g->dest);

  // Forward Q and the remaining list (wire cost was paid at send time).
  state.query->traffic().forwarded_list_bytes += g->fwd_bytes;
  state.query->traffic().forward_messages += 1;
  const auto reached =
      std::lower_bound(state.reached.begin(), state.reached.end(), g->dest);
  if (reached == state.reached.end() || *reached != g->dest) {
    state.reached.insert(reached, g->dest);
  }

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
  for (PlannedGossip& g : msg.gossips) {
    CommitGossip(node, ctx, &g);
    g.exchange.DropSnapshots();  // sim/engine.h: a commit drops its handles
  }
}

void EagerProtocol::EndCycle(std::uint64_t /*cycle*/, Rng* rng) {
  WorkerPool& pool = system_->pool();
  pool.ForEachItem(wave_.Prepare(), [&](std::size_t item, std::size_t worker) {
    wave_.Screen(item, worker);
  });
  std::vector<QueryState*> open;
  for (auto& [qid, state] : state_) {
    if (!state.query->finalized()) open.push_back(&state);
  }
  // Algorithm 4 at each querier, beside the wave of refreshments, which
  // reads no query state. The wave is what makes the eager mode refresh the
  // querier's neighbourhood so effectively (Figure 9).
  pool.ForEachItem(
      open.size(),
      [&](std::size_t item, std::size_t /*worker*/) {
        QueryState& state = *open[item];
        state.query->EndOfCycle(state.active_tasks == 0);
      },
      [&] { wave_.Run(rng); });
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
  // active_tasks counts the nodes holding the query's task, and only
  // reached nodes can hold one; a finished query has none to erase.
  if (state.active_tasks > 0) {
    for (UserId u : state.reached) {
      system_->node(u).tasks().erase(id);
    }
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

template <class Io, class Message>
void EagerProtocol::TransferMessage(Io& io, Message& message) {
  io.Vector(message.gossips, 48, [&](auto& g) {
    io.U64(g.query_id);
    io.User(g.dest, "gossip destination");
    io.U64(g.epoch);
    io.U32(g.generation);
    io.U64(g.consumed);
    io.U64(g.fwd_bytes);
    io.Bool(g.has_partial);
    if (g.has_partial) TransferPartialResult(io, g.partial);
    io.Users(g.returned, "returned-list user");
    io.Users(g.kept, "kept-list user");
    TransferExchangePlan(io, g.exchange);
  });
}

void EagerProtocol::EncodeMessage(const DeliveryMessage& message,
                                  CheckpointWriter* out) const {
  TransferMessage(*out, static_cast<const TaskGossipMessage&>(message));
}

std::unique_ptr<DeliveryMessage> EagerProtocol::DecodeMessage(
    CheckpointReader* in) const {
  auto message = std::make_unique<TaskGossipMessage>();
  TransferMessage(*in, *message);
  return message;
}

template <class Io, class Self>
void EagerProtocol::Transfer(Io& io, Self& self) {
  // The nodes, and so their tasks, are loaded first: a load counts each
  // query's holders to check the restored active-task counts against.
  std::unordered_map<std::uint64_t, std::int64_t> holders;
  if constexpr (Io::kLoading) {
    for (UserId u = 0; u < static_cast<UserId>(self.system_->NumUsers());
         ++u) {
      for (const auto& [qid, task] : self.system_->node(u).tasks()) {
        ++holders[qid];
      }
    }
  }
  std::uint64_t max_id = 0;
  io.SortedValues(self.state_, 64, [&](auto& state) {
    if constexpr (Io::kLoading) {
      state.query = std::make_unique<ActiveQuery>(0, QuerySpec{}, 1, 0);
    }
    TransferState(io, *state.query);
    io.AscendingUsers(state.reached, "reached user");
    std::int64_t active_tasks = state.active_tasks;
    io.I64(active_tasks);
    // The query's own flag, kept in the layout a second time.
    bool finalized = state.query->finalized();
    io.Bool(finalized);
    const std::uint64_t id = state.query->id();
    if constexpr (Io::kLoading) {
      if (!self.state_.empty() && id <= max_id) {
        throw CheckpointError("eager query ids out of order in checkpoint");
      }
      if (active_tasks < 0) {
        throw CheckpointError("eager query " + std::to_string(id) +
                              " has a negative active task count");
      }
      if (finalized != state.query->finalized()) {
        throw CheckpointError(
            "eager query " + std::to_string(id) +
            "'s finalized byte disagrees with the query's own flag");
      }
      const auto held = holders.find(id);
      const std::int64_t holding = held == holders.end() ? 0 : held->second;
      if (active_tasks != holding) {
        throw CheckpointError(
            "eager query " + std::to_string(id) + " counts " +
            std::to_string(active_tasks) + " active tasks but " +
            std::to_string(holding) + " nodes hold its task");
      }
      state.active_tasks = static_cast<int>(active_tasks);
    }
    max_id = id;
    return id;
  });
  io.U64(self.timeout_reissues_);
  io.U64(self.stale_messages_dropped_);
  io.U64(self.forgotten_late_results_);
  io.U64(self.next_id_);
  io.U64(self.next_epoch_);
  io.Sentinel("eager protocol");
  if constexpr (Io::kLoading) {
    for (const auto& [qid, holding] : holders) {
      if (!self.state_.contains(qid)) {
        throw CheckpointError("eager query " + std::to_string(qid) +
                              " is not in the checkpoint but " +
                              std::to_string(holding) +
                              " nodes hold its task");
      }
    }
    if (!self.state_.empty() && max_id >= self.next_id_) {
      throw CheckpointError("eager query id " + std::to_string(max_id) +
                            " collides with the next-id allocator (" +
                            std::to_string(self.next_id_) + ")");
    }
    // Participants and shard mailboxes are intra-cycle scratch, empty at
    // every barrier.
    self.wave_.Clear();
    self.shard_reissues_.fill(0);
  }
}

void EagerProtocol::SaveState(CheckpointWriter* out) const {
  Transfer(*out, *this);
}

void EagerProtocol::LoadState(CheckpointReader* in) { Transfer(*in, *this); }

}  // namespace p3q
