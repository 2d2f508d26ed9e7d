#include "core/lazy_protocol.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "core/p3q_system.h"
#include "obs/trace.h"
#include "sim/checkpoint.h"

namespace p3q {
namespace {

/// Digests a node proposes in a top-layer gossip: a random subset of up to
/// `fanout` stored profiles ("if more than 50 profiles are stored ... 50
/// random ones are exchanged") plus the node's own fresh digest, so a user's
/// own updates disseminate. Borrowed from the node's frozen state: each
/// proposal is a snapshot's owner and version, so no handle is copied until
/// an offer survives the screen. Only the subset draws from `rng`; a node
/// storing at most `fanout` profiles proposes them all and draws nothing.
std::vector<const ProfilePtr*> MakeProposals(const P3QNode* node, int fanout,
                                             Rng* rng) {
  std::vector<const ProfilePtr*> proposals = node->network().StoredProfiles();
  if (static_cast<int>(proposals.size()) > fanout) {
    proposals = rng->SampleWithoutReplacement(proposals,
                                              static_cast<std::size_t>(fanout));
  }
  proposals.push_back(&node->profile());
  return proposals;
}

/// Wire size of the proposed digests (DigestInfo::WireBytes each).
std::size_t ProposalWireBytes(const std::vector<const ProfilePtr*>& proposals) {
  std::size_t bytes = 0;
  for (const ProfilePtr* p : proposals) {
    bytes += (*p)->DigestBytes() + kBytesPerUserId;
  }
  return bytes;
}

/// Algorithm 1 step 1 at the receiving side, the part that draws nothing:
/// drops each proposed digest the receiver already knows at that version or
/// newer, and scores every survivor in ONE KernelPairSimilarityBatch sweep,
/// appending them to `survivors`. The kernel's exact common_items count
/// answers "shares an item" (both intersect the same item bitmaps), and a
/// candidate sharing no item comes back with an all-zero PairSimilarity.
/// Returns how many survived.
std::uint32_t ScreenProposals(const P3QNode& receiver,
                              const std::vector<const ProfilePtr*>& proposals,
                              ScreenedProposals* survivors) {
  // The kernel's input, kept per thread from one screen to the next.
  thread_local std::vector<const Profile*> batch;
  batch.clear();
  const std::size_t first = survivors->size();
  for (const ProfilePtr* proposal : proposals) {
    const Profile& theirs = **proposal;
    if (theirs.owner() == receiver.id()) continue;
    const std::uint32_t known =
        receiver.network().KnownVersion(theirs.owner());
    if (known != PersonalNetwork::kNoVersion && theirs.version() <= known) {
      continue;
    }
    survivors->proposals.push_back(proposal);
    batch.push_back(&theirs);
  }
  survivors->sims.resize(survivors->size());
  KernelPairSimilarityBatch(*receiver.profile(), batch.data(), batch.size(),
                            survivors->sims.data() + first);
  return static_cast<std::uint32_t>(batch.size());
}

/// Algorithm 1 steps 1-2 at the receiving side, the draws, over the `count`
/// survivors from `first` that `mine`'s owner screened: replays them drawing
/// exactly the random values the per-pair scalar path drew (Bloom
/// false-positive Bernoulli, spurious-common binomial), accounts the
/// actions-on-common-items traffic, and emits an offer (with its
/// precomputed similarity score) for every survivor scoring above 0. Step
/// 3 — offering to the personal network and the conditional full-profile
/// transfer — happens at commit time. Only an offer copies its snapshot's
/// handle.
void DrawOffers(const P3QSystem* system, const Profile& mine,
                const ScreenedProposals& survivors, std::size_t first,
                std::size_t count, Rng* rng, Metrics* traffic,
                std::pmr::vector<ProfileExchangeOffer>* offers) {
  const std::size_t end = first + count;
  // Exactly the candidates with a positive score become offers (one that
  // shares no item scores 0), so the offers are reserved once.
  offers->reserve(static_cast<std::size_t>(std::count_if(
      survivors.sims.begin() + static_cast<std::ptrdiff_t>(first),
      survivors.sims.begin() + static_cast<std::ptrdiff_t>(end),
      [](const PairSimilarity& sim) { return sim.score > 0; })));

  // A genuine common item passes the Bloom screen without a draw; otherwise
  // one Bernoulli decides the false positive, and every survivor draws the
  // spurious-common binomial below.
  for (std::size_t k = first; k < end; ++k) {
    const Profile& theirs = **survivors.proposals[k];
    const PairSimilarity& sim = survivors.sims[k];
    if (sim.common_items == 0 && !DigestFalsePositive(mine, theirs, rng)) {
      continue;
    }
    const double fpp = theirs.DigestFpp();

    // Step 2 — the receiver derives the apparently-common items by testing
    // her own items against the candidate's Bloom digest (true common items
    // plus false positives), requests the candidate's tagging actions for
    // them, and receives the actions actually present. Both legs are paid:
    // the request at 16 B per item hash, the response at 36 B per action —
    // which is how an undersized digest's false positives turn into wasted
    // step-2 traffic.
    const int spurious = rng->NextBinomial(
        static_cast<int>(mine.NumItems()) - static_cast<int>(sim.common_items),
        fpp);
    const std::uint64_t apparent_common = sim.common_items + spurious;
    traffic->Record(MessageType::kLazyCommonItems,
                    apparent_common * 16 +
                        static_cast<std::uint64_t>(sim.b_actions_on_common) *
                            kBytesPerTaggingAction);
    if (sim.score == 0) continue;
    const std::uint64_t score =
        SimilarityScore(system->config().similarity, sim.score, mine.Length(),
                        theirs.Length());

    // The offer outlives the plan phase, so it owns its snapshot.
    ProfileExchangeOffer offer;
    offer.score = score;
    offer.digest = DigestInfo{theirs.owner(), *survivors.proposals[k]};
    offer.rest_bytes =
        static_cast<std::uint64_t>(theirs.Length() - sim.b_actions_on_common) *
        kBytesPerTaggingAction;
    offers->push_back(std::move(offer));
  }
}

/// Screens the exchange a <-> b given both sides' proposals: a's screened
/// by b, then b's screened by a.
void ScreenExchange(const P3QNode& a, const P3QNode& b,
                    const std::vector<const ProfilePtr*>& from_a,
                    const std::vector<const ProfilePtr*>& from_b,
                    ScreenedProposals* survivors, ExchangeScreen* screen) {
  screen->a = a.id();
  screen->b = b.id();
  screen->a_proposal_bytes = ProposalWireBytes(from_a);
  screen->b_proposal_bytes = ProposalWireBytes(from_b);
  screen->first = static_cast<std::uint32_t>(survivors->size());
  screen->to_b = ScreenProposals(b, from_a, survivors);
  screen->to_a = ScreenProposals(a, from_b, survivors);
}

/// Commit half of an exchange direction: offer each screened candidate to
/// the receiver's personal network; when the entry lands in the stored
/// top-c, the rest of the profile is transferred (step 3).
void CommitOffers(P3QNode* receiver,
                  const std::pmr::vector<ProfileExchangeOffer>& offers,
                  Metrics* traffic) {
  for (const ProfileExchangeOffer& offer : offers) {
    ConsiderOutcome outcome = receiver->network().Consider(
        offer.digest.user, offer.score, offer.digest,
        /*replica=*/offer.digest.snapshot);
    if (outcome.stored_profile) {
      traffic->Record(MessageType::kLazyFullProfile, offer.rest_bytes);
    }
  }
}

/// Entries entitled to storage but missing (or holding a stale) replica are
/// served from the gossip partner when she stores an at-least-as-new copy
/// (Algorithm 1's "require the rest of the tagging actions" is answered by
/// the partner who proposed the digest). There is deliberately no fallback
/// fetch from the owner here: update dissemination flows through gossip
/// replicas and random-view probing only, which is what gives the paper's
/// storage-dependent freshness behaviour (Figure 7). Runs at commit time,
/// against the partner's current (partially committed) state — commit order
/// is canonical, so this stays deterministic.
void CommitReplicaFill(const P3QSystem* system, P3QNode* receiver,
                       const P3QNode* sender, Metrics* traffic) {
  const Profile& mine = *receiver->profile();
  for (UserId w : receiver->network().EntriesNeedingProfile()) {
    // Borrowed from the sender; copied below only when offered.
    const ProfilePtr& replica = sender->FindUsableProfile(w);
    if (replica == nullptr) continue;
    const std::uint32_t known = receiver->network().KnownVersion(w);
    const ProfilePtr& held = receiver->network().StoredProfileOf(w);
    const std::uint32_t stored =
        held != nullptr ? held->version() : PersonalNetwork::kNoVersion;
    // Useless when older than the digest we trust, or no newer than what we
    // already store.
    if (replica->version() < known) continue;
    if (stored != PersonalNetwork::kNoVersion &&
        replica->version() <= stored) {
      continue;
    }
    traffic->Record(MessageType::kLazyFullProfile, replica->WireBytes());
    const std::uint64_t score = system->ScoreBetween(mine, *replica);
    if (score == 0) continue;  // cannot happen for a network entry; guard
    receiver->network().Consider(w, score, DigestInfo{w, replica}, replica);
  }
}

}  // namespace

LazyProtocol::LazyProtocol(P3QSystem* system) : system_(system) {}

bool LazyProtocol::ActiveInCycle(UserId node) const {
  return system_->network().IsOnline(node);
}

void LazyProtocol::PlanProfileExchange(P3QSystem* system, UserId a, UserId b,
                                       Rng* rng, Metrics* traffic,
                                       ProfileExchangePlan* plan) {
  const P3QNode& na = system->node(a);
  const P3QNode& nb = system->node(b);
  const int fanout = system->config().gossip_profile_fanout;
  // The proposal samples draw first; the screen draws nothing, so the draws
  // continue the stream where the samples left it.
  const std::vector<const ProfilePtr*> from_a = MakeProposals(&na, fanout, rng);
  const std::vector<const ProfilePtr*> from_b = MakeProposals(&nb, fanout, rng);
  thread_local ScreenedProposals survivors;
  survivors.clear();
  ExchangeScreen screen;
  ScreenExchange(na, nb, from_a, from_b, &survivors, &screen);
  DrawProfileExchange(system, screen, survivors, rng, traffic, plan);
}

bool LazyProtocol::ScreenProfileExchange(const P3QSystem* system, UserId a,
                                         UserId b,
                                         ScreenedProposals* survivors,
                                         ExchangeScreen* screen) {
  const P3QNode& na = system->node(a);
  const P3QNode& nb = system->node(b);
  const std::size_t fanout =
      static_cast<std::size_t>(system->config().gossip_profile_fanout);
  std::vector<const ProfilePtr*> from_a = na.network().StoredProfiles();
  std::vector<const ProfilePtr*> from_b = nb.network().StoredProfiles();
  if (from_a.size() > fanout || from_b.size() > fanout) return false;
  from_a.push_back(&na.profile());
  from_b.push_back(&nb.profile());
  ScreenExchange(na, nb, from_a, from_b, survivors, screen);
  return true;
}

void LazyProtocol::DrawProfileExchange(const P3QSystem* system,
                                       const ExchangeScreen& screen,
                                       const ScreenedProposals& survivors,
                                       Rng* rng, Metrics* traffic,
                                       ProfileExchangePlan* plan) {
  plan->a = screen.a;
  plan->b = screen.b;
  traffic->Record(MessageType::kLazyDigestProposal, screen.a_proposal_bytes);
  traffic->Record(MessageType::kLazyDigestProposal, screen.b_proposal_bytes);
  DrawOffers(system, *system->node(screen.b).profile(), survivors,
             screen.first, screen.to_b, rng, traffic, &plan->offers_to_b);
  DrawOffers(system, *system->node(screen.a).profile(), survivors,
             screen.first + screen.to_b, screen.to_a, rng, traffic,
             &plan->offers_to_a);
}

void LazyProtocol::CommitProfileExchange(P3QSystem* system,
                                         const ProfileExchangePlan& plan,
                                         Metrics* traffic) {
  P3QNode* na = &system->node(plan.a);
  P3QNode* nb = &system->node(plan.b);
  CommitOffers(nb, plan.offers_to_b, traffic);
  CommitReplicaFill(system, nb, na, traffic);
  CommitOffers(na, plan.offers_to_a, traffic);
  CommitReplicaFill(system, na, nb, traffic);
}

void LazyProtocol::PlanBottomLayer(P3QNode* node, const PlanContext& ctx,
                                   GossipMessage* plan) {
  const Network& net = system_->network();
  Metrics& traffic = system_->network().ShardTraffic(ctx.shard);

  // Random-peer-sampling shuffle with one online random-view peer. The
  // frozen view is filtered locally as unresponsive peers are discovered
  // (a pool of view indices: only the payload sent copies digests); the
  // removals themselves are committed after the barrier.
  const std::vector<DigestInfo>& view = node->random_view().entries();
  std::vector<std::uint32_t> pool(view.size());
  std::iota(pool.begin(), pool.end(), 0u);
  for (int attempt = 0; attempt < kOfflineRetry; ++attempt) {
    if (pool.empty()) break;
    const std::size_t pick =
        static_cast<std::size_t>(ctx.rng->NextUint64(pool.size()));
    const UserId peer = view[pool[pick]].user;
    if (!net.IsOnline(peer)) {
      plan->view_removals.push_back(peer);  // replaced over time
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
      continue;
    }
    const P3QNode* pn = &system_->node(peer);
    plan->bottom_peer = peer;
    plan->send_payload.reserve(pool.size() + 1);
    for (std::uint32_t i : pool) plan->send_payload.push_back(view[i]);
    plan->send_payload.push_back(node->SelfDigest());
    pn->random_view().MakeExchangePayload(pn->SelfDigest(),
                                          &plan->recv_payload);
    std::size_t bytes_mine = 0, bytes_theirs = 0;
    for (const auto& d : plan->send_payload) bytes_mine += d.WireBytes();
    for (const auto& d : plan->recv_payload) bytes_theirs += d.WireBytes();
    traffic.Record(MessageType::kRandomViewGossip, bytes_mine);
    traffic.Record(MessageType::kRandomViewGossip, bytes_theirs);
    break;
  }

  // Probe fresh random-view digests: when a digest shows at least one item
  // in common with this node's profile, the full profile is fetched from
  // its owner and scored as a personal-network candidate. Probing is
  // memoized per (user, version) — re-probing an unchanged digest cannot
  // change the outcome, so this is behaviourally the paper's per-cycle
  // re-scoring at a fraction of the cost. The memo is node-private state,
  // safe to update during the plan phase. The screens (and their rng
  // draws) run per digest exactly as before; the similarity scoring of the
  // survivors is deferred to one batched kernel call, which cannot change
  // the outcome because scoring consumes no randomness.
  const Profile& mine = *node->profile();
  std::vector<const ProfilePtr*> fetched;  // borrowed from the frozen store
  for (const DigestInfo& d : view) {
    if (!node->ShouldProbe(d.user, d.version())) continue;
    const std::uint32_t known = node->network().KnownVersion(d.user);
    if (known != PersonalNetwork::kNoVersion && known >= d.version()) continue;
    if (!DigestIndicatesCommonItem(mine, d, ctx.rng)) continue;
    if (!net.IsOnline(d.user)) continue;
    const ProfilePtr& current = system_->profile_store().Get(d.user);
    traffic.Record(MessageType::kDirectProfileFetch, current->WireBytes());
    fetched.push_back(&current);
  }
  if (fetched.empty()) return;
  std::vector<const Profile*> candidates;
  candidates.reserve(fetched.size());
  for (const ProfilePtr* p : fetched) candidates.push_back(p->get());
  std::vector<PairSimilarity> sims(candidates.size());
  KernelPairSimilarityBatch(mine, candidates.data(), candidates.size(),
                            sims.data());
  plan->probes.reserve(fetched.size());
  for (std::size_t i = 0; i < fetched.size(); ++i) {
    const std::uint64_t score =
        SimilarityScore(system_->config().similarity, sims[i].score,
                        mine.Length(), candidates[i]->Length());
    if (score == 0) continue;
    plan->probes.push_back(
        PlannedProbe{score, DigestInfo{candidates[i]->owner(), *fetched[i]}});
  }
}

void LazyProtocol::PlanTopLayer(P3QNode* node, const PlanContext& ctx,
                                GossipMessage* plan) {
  const Network& net = system_->network();
  std::vector<UserId> skip;
  for (int attempt = 0; attempt <= kOfflineRetry; ++attempt) {
    const UserId dest = node->network().OldestNeighbour(skip);
    if (dest == kInvalidUser) return;
    if (!net.IsOnline(dest)) {
      skip.push_back(dest);
      continue;
    }
    PlanProfileExchange(system_, node->id(), dest, ctx.rng,
                        &system_->network().ShardTraffic(ctx.shard),
                        &plan->exchange);
    return;
  }
}

void LazyProtocol::PlanCycle(UserId node_id, const PlanContext& ctx) {
  auto plan = std::make_unique<GossipMessage>(ctx.arena());
  P3QNode* node = &system_->node(node_id);
  if (system_->config().enable_bottom_layer) {
    PlanBottomLayer(node, ctx, plan.get());
  }
  PlanTopLayer(node, ctx, plan.get());
  if (plan->Empty()) return;
  if (Tracer* tracer = system_->tracer(); tracer != nullptr) {
    TraceEvent event;
    event.cycle = ctx.cycle;
    event.kind = TraceEventKind::kGossipPlanned;
    event.node = node_id;
    event.peer =
        plan->exchange.Planned() ? plan->exchange.b : plan->bottom_peer;
    event.value = static_cast<std::int64_t>(plan->exchange.offers_to_a.size() +
                                            plan->exchange.offers_to_b.size());
    tracer->EmitShard(ctx.shard, event);
  }
  ctx.Send(std::move(plan));
}

void LazyProtocol::EndPlan(std::uint64_t /*cycle*/) {
  system_->network().MergeShardTraffic();
}

void LazyProtocol::EndCycle(std::uint64_t /*cycle*/, Rng* /*rng*/) {
  // The drain's per-worker traffic lanes.
  system_->network().MergeShardTraffic();
}

void LazyProtocol::CommitFootprintOf(UserId /*sender*/,
                                     const DeliveryMessage& message,
                                     CommitFootprint* footprint) const {
  // The sender's view, network and probe offers; the bottom peer's view;
  // both exchange endpoints' networks (each side's replica fill reads the
  // other's stored replicas).
  const auto& plan = static_cast<const GossipMessage&>(message);
  footprint->Add(plan.bottom_peer);
  footprint->Add(plan.exchange.a);
  footprint->Add(plan.exchange.b);
}

namespace {

/// A screened score: a u64 on disk, but a personal network keeps 32 bits
/// (PersonalNetwork::Consider refuses more at commit).
template <class Io, class Score>
void TransferScore(Io& io, Score& score) {
  io.U64(score);
  if (Io::kLoading && score > std::numeric_limits<std::uint32_t>::max()) {
    throw CheckpointError("corrupt checkpoint: score " +
                          std::to_string(score) + " does not fit in 32 bits");
  }
}

}  // namespace

template <class Io, class Plan>
void TransferExchangePlan(Io& io, Plan& plan) {
  io.U32(plan.a);
  io.U32(plan.b);
  if constexpr (Io::kLoading) {
    // A planned exchange has two real endpoints; an unplanned one has none.
    const std::size_t num_users = io.population();
    if (plan.Planned() ? plan.a >= num_users || plan.b >= num_users
                       : plan.b != kInvalidUser) {
      throw CheckpointError("corrupt checkpoint: profile exchange endpoints " +
                            std::to_string(plan.a) + ", " +
                            std::to_string(plan.b) + " invalid for " +
                            std::to_string(num_users) + " users");
    }
  }
  for (auto* offers : {&plan.offers_to_b, &plan.offers_to_a}) {
    io.Vector(*offers, 24, [&](auto& offer) {
      TransferScore(io, offer.score);
      io.Digest(offer.digest);
      io.U64(offer.rest_bytes);
    });
  }
}

template void TransferExchangePlan(CheckpointWriter&,
                                   const ProfileExchangePlan&);
template void TransferExchangePlan(CheckpointReader&, ProfileExchangePlan&);

template <class Io, class Message>
void LazyProtocol::TransferMessage(Io& io, Message& plan) {
  io.Users(plan.view_removals, "random-view removal");
  io.U32(plan.bottom_peer);
  if constexpr (Io::kLoading) {
    if (plan.bottom_peer != kInvalidUser &&
        plan.bottom_peer >= io.population()) {
      throw CheckpointError("corrupt checkpoint: bottom-layer peer " +
                            std::to_string(plan.bottom_peer) +
                            " out of range");
    }
  }
  for (auto* payload : {&plan.send_payload, &plan.recv_payload}) {
    io.Vector(*payload, 8, [&](auto& digest) { io.Digest(digest); });
  }
  io.Vector(plan.probes, 16, [&](auto& probe) {
    TransferScore(io, probe.score);
    io.Digest(probe.digest);
  });
  TransferExchangePlan(io, plan.exchange);
}

void LazyProtocol::EncodeMessage(const DeliveryMessage& message,
                                 CheckpointWriter* out) const {
  TransferMessage(*out, static_cast<const GossipMessage&>(message));
}

std::unique_ptr<DeliveryMessage> LazyProtocol::DecodeMessage(
    CheckpointReader* in) const {
  auto plan = std::make_unique<GossipMessage>();
  TransferMessage(*in, *plan);
  return plan;
}

void LazyProtocol::CommitMessage(UserId sender, DeliveryMessage& message,
                                 const CommitContext& ctx) {
  auto& plan = static_cast<GossipMessage&>(message);
  P3QNode* node = &system_->node(sender);

  // Bottom layer: drop unresponsive peers, then both sides of the shuffle
  // keep a random subset of the union (the peer's merge chains after any
  // merge an earlier commit already applied to her view).
  for (UserId r : plan.view_removals) node->random_view().Remove(r);
  if (plan.bottom_peer != kInvalidUser) {
    node->random_view().Merge(plan.recv_payload, ctx.rng);
    system_->node(plan.bottom_peer)
        .random_view()
        .Merge(plan.send_payload, ctx.rng);
  }
  for (const PlannedProbe& probe : plan.probes) {
    node->network().Consider(probe.digest.user, probe.score, probe.digest,
                             probe.digest.snapshot);
  }

  // Top layer: the 3-step exchange plus timestamp bookkeeping. When the
  // message lagged, the exchange commits against the partner's *current*
  // state — CommitOffers/CommitReplicaFill tolerate that by versioned
  // Consider, so a stale offer simply loses.
  if (plan.exchange.Planned()) {
    const UserId dest = plan.exchange.b;
    CommitProfileExchange(system_, plan.exchange,
                          &system_->network().ShardTraffic(ctx.worker));
    node->network().TouchGossiped(dest);
    system_->node(dest).network().ResetTimestamp(sender);
    if (ctx.tracing()) {
      TraceEvent event;
      event.cycle = ctx.cycle;
      event.kind = TraceEventKind::kGossipCommitted;
      event.node = sender;
      event.peer = dest;
      event.value = static_cast<std::int64_t>(ctx.cycle - ctx.send_cycle);
      ctx.Emit(event);
    }
  }

  // The snapshot handles go here, on the committing thread (sim/engine.h),
  // so the teardown frees only the message object.
  plan.send_payload.clear();
  plan.recv_payload.clear();
  plan.probes.clear();
  plan.exchange.DropSnapshots();
}

}  // namespace p3q
