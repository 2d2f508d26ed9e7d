#include "core/lazy_protocol.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>

#include "core/p3q_system.h"
#include "obs/trace.h"
#include "sim/checkpoint.h"

namespace p3q {
namespace {

/// Digests a node proposes in a top-layer gossip: a random subset of up to
/// `fanout` stored profiles ("if more than 50 profiles are stored ... 50
/// random ones are exchanged") plus the node's own fresh digest, so a user's
/// own updates disseminate.
std::vector<DigestInfo> MakeProposals(const P3QNode* node, int fanout,
                                      Rng* rng) {
  std::vector<ProfilePtr> stored = node->network().StoredProfiles();
  std::vector<DigestInfo> proposals;
  if (static_cast<int>(stored.size()) > fanout) {
    stored =
        rng->SampleWithoutReplacement(stored, static_cast<std::size_t>(fanout));
  }
  proposals.reserve(stored.size() + 1);
  for (ProfilePtr& p : stored) {
    const UserId owner = p->owner();
    proposals.push_back(DigestInfo{owner, std::move(p)});
  }
  proposals.push_back(node->SelfDigest());
  return proposals;
}

std::size_t ProposalWireBytes(const std::vector<DigestInfo>& proposals) {
  std::size_t bytes = 0;
  for (const DigestInfo& d : proposals) bytes += d.WireBytes();
  return bytes;
}

/// Algorithm 1 steps 1-2 at the receiving side, against frozen state:
/// screens each proposed digest, accounts the actions-on-common-items
/// traffic, and emits an offer (with precomputed similarity score) for every
/// survivor. Step 3 — offering to the personal network and the conditional
/// full-profile transfer — happens at commit time.
///
/// Scoring is batched: a first rng-free pass runs the deterministic step-1
/// screens (known-version, exact shares-an-item) and hands every surviving
/// candidate to ONE KernelPairSimilarityBatch sweep; a second pass then
/// replays the proposals drawing exactly the random values the per-pair
/// scalar path drew (Bloom false-positive Bernoulli, spurious-common
/// binomial), so the batched plan phase stays byte-identical to the
/// sequential one.
void ScreenProposals(P3QSystem* system, const P3QNode* receiver,
                     const std::vector<DigestInfo>& proposals, Rng* rng,
                     Metrics* traffic,
                     std::vector<ProfileExchangeOffer>* offers) {
  const Profile& mine = *receiver->profile();

  // Pass 0 (no rng): step-1 screens that need no randomness, then the one
  // batched kernel call. A candidate sharing no item with the receiver has
  // an all-zero PairSimilarity by definition, so only genuinely overlapping
  // pairs are scored at all.
  enum : signed char { kSkip = 0, kShares = 1, kNoShare = 2 };
  std::vector<signed char> state(proposals.size(), kSkip);
  std::vector<std::size_t> batch_slot(proposals.size(), 0);
  std::vector<const Profile*> batch;
  for (std::size_t i = 0; i < proposals.size(); ++i) {
    const DigestInfo& d = proposals[i];
    if (d.user == receiver->id()) continue;
    // Step 1 — digest screen: drop when we already hold this (or a newer)
    // digest of the user.
    const std::uint32_t known = receiver->network().KnownVersion(d.user);
    if (known != PersonalNetwork::kNoVersion && d.version() <= known) continue;
    if (mine.SharesItemWith(*d.snapshot)) {
      state[i] = kShares;
      batch_slot[i] = batch.size();
      batch.push_back(d.snapshot.get());
    } else {
      state[i] = kNoShare;
    }
  }
  std::vector<PairSimilarity> sims(batch.size());
  KernelPairSimilarityBatch(mine, batch.data(), batch.size(), sims.data());

  // Pass 1 — replay with exactly the scalar path's rng draws: a genuine
  // common item passes the Bloom screen without a draw; otherwise one
  // Bernoulli decides the false positive, and every survivor draws the
  // spurious-common binomial below.
  for (std::size_t i = 0; i < proposals.size(); ++i) {
    if (state[i] == kSkip) continue;
    const DigestInfo& d = proposals[i];
    PairSimilarity sim;  // stays all-zero on the false-positive path
    if (state[i] == kShares) {
      sim = sims[batch_slot[i]];
    } else {
      // No shared item: the helper's recheck is known-false, so this draws
      // exactly the false-positive Bernoulli — one source of truth for the
      // Bloom screen's rng behaviour.
      if (!DigestIndicatesCommonItem(mine, d, rng)) continue;
    }
    const double fpp = d.snapshot->DigestFpp();

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
                        d.snapshot->Length());

    ProfileExchangeOffer offer;
    offer.score = score;
    offer.digest = d;
    offer.rest_bytes =
        static_cast<std::uint64_t>(d.snapshot->Length() -
                                   sim.b_actions_on_common) *
        kBytesPerTaggingAction;
    offers->push_back(std::move(offer));
  }
}

/// Commit half of an exchange direction: offer each screened candidate to
/// the receiver's personal network; when the entry lands in the stored
/// top-c, the rest of the profile is transferred (step 3).
void CommitOffers(P3QSystem* system, P3QNode* receiver,
                  const std::vector<ProfileExchangeOffer>& offers) {
  Network& net = system->network();
  for (const ProfileExchangeOffer& offer : offers) {
    ConsiderOutcome outcome = receiver->network().Consider(
        offer.digest.user, offer.score, offer.digest,
        /*replica=*/offer.digest.snapshot);
    if (outcome.stored_profile) {
      net.RecordMessage(MessageType::kLazyFullProfile, offer.rest_bytes);
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
void CommitReplicaFill(P3QSystem* system, P3QNode* receiver,
                       const P3QNode* sender) {
  Network& net = system->network();
  const Profile& mine = *receiver->profile();
  for (UserId w : receiver->network().EntriesNeedingProfile()) {
    ProfilePtr replica = sender->FindUsableProfile(w);
    if (replica == nullptr) continue;
    const std::uint32_t known = receiver->network().KnownVersion(w);
    const NetworkEntry* entry = receiver->network().Find(w);
    const std::uint32_t stored = entry->HasStoredProfile()
                                     ? entry->stored_profile->version()
                                     : PersonalNetwork::kNoVersion;
    // Useless when older than the digest we trust, or no newer than what we
    // already store.
    if (replica->version() < known) continue;
    if (stored != PersonalNetwork::kNoVersion &&
        replica->version() <= stored) {
      continue;
    }
    net.RecordMessage(MessageType::kLazyFullProfile, replica->WireBytes());
    const std::uint64_t score = system->ScoreBetween(mine, *replica);
    if (score == 0) continue;  // cannot happen for a network entry; guard
    receiver->network().Consider(w, score, DigestInfo{w, replica}, replica);
  }
}

}  // namespace

LazyProtocol::LazyProtocol(P3QSystem* system) : system_(system) {}

ProfileExchangePlan LazyProtocol::PlanProfileExchange(P3QSystem* system,
                                                      UserId a, UserId b,
                                                      Rng* rng,
                                                      Metrics* traffic) {
  const P3QNode* na = &system->node(a);
  const P3QNode* nb = &system->node(b);
  const int fanout = system->config().gossip_profile_fanout;

  ProfileExchangePlan plan;
  plan.a = a;
  plan.b = b;
  const std::vector<DigestInfo> from_a = MakeProposals(na, fanout, rng);
  const std::vector<DigestInfo> from_b = MakeProposals(nb, fanout, rng);
  traffic->Record(MessageType::kLazyDigestProposal, ProposalWireBytes(from_a));
  traffic->Record(MessageType::kLazyDigestProposal, ProposalWireBytes(from_b));
  ScreenProposals(system, nb, from_a, rng, traffic, &plan.offers_to_b);
  ScreenProposals(system, na, from_b, rng, traffic, &plan.offers_to_a);
  return plan;
}

void LazyProtocol::CommitProfileExchange(P3QSystem* system,
                                         const ProfileExchangePlan& plan) {
  P3QNode* na = &system->node(plan.a);
  P3QNode* nb = &system->node(plan.b);
  CommitOffers(system, nb, plan.offers_to_b);
  CommitReplicaFill(system, nb, na);
  CommitOffers(system, na, plan.offers_to_a);
  CommitReplicaFill(system, na, nb);
}

void LazyProtocol::RunProfileExchange(P3QSystem* system, UserId a, UserId b,
                                      Rng* rng) {
  const ProfileExchangePlan plan =
      PlanProfileExchange(system, a, b, rng, &system->network().metrics());
  CommitProfileExchange(system, plan);
}

void LazyProtocol::PlanBottomLayer(P3QNode* node, const PlanContext& ctx,
                                   GossipMessage* plan) {
  const Network& net = system_->network();
  Metrics& traffic = system_->network().ShardTraffic(ctx.shard);

  // Random-peer-sampling shuffle with one online random-view peer. The
  // frozen view is filtered locally as unresponsive peers are discovered;
  // the removals themselves are committed after the barrier.
  std::vector<DigestInfo> pool = node->random_view().entries();
  for (int attempt = 0; attempt < system_->config().offline_retry; ++attempt) {
    if (pool.empty()) break;
    const std::size_t pick =
        static_cast<std::size_t>(ctx.rng->NextUint64(pool.size()));
    const UserId peer = pool[pick].user;
    if (!net.IsOnline(peer)) {
      plan->view_removals.push_back(peer);  // replaced over time
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
      continue;
    }
    const P3QNode* pn = &system_->node(peer);
    plan->bottom_peer = peer;
    plan->send_payload = pool;
    plan->send_payload.push_back(node->SelfDigest());
    plan->recv_payload =
        pn->random_view().MakeExchangePayload(pn->SelfDigest());
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
  std::vector<DigestInfo> fetched;
  for (const DigestInfo& d : node->random_view().entries()) {
    if (!node->ShouldProbe(d.user, d.version())) continue;
    if (node->network().KnownVersion(d.user) != PersonalNetwork::kNoVersion &&
        node->network().KnownVersion(d.user) >= d.version()) {
      continue;
    }
    if (!DigestIndicatesCommonItem(mine, d, ctx.rng)) continue;
    if (!net.IsOnline(d.user)) continue;
    ProfilePtr current = system_->profile_store().Get(d.user);
    traffic.Record(MessageType::kDirectProfileFetch, current->WireBytes());
    fetched.push_back(DigestInfo{d.user, std::move(current)});
  }
  if (fetched.empty()) return;
  std::vector<const Profile*> candidates;
  candidates.reserve(fetched.size());
  for (const DigestInfo& d : fetched) candidates.push_back(d.snapshot.get());
  std::vector<PairSimilarity> sims(candidates.size());
  KernelPairSimilarityBatch(mine, candidates.data(), candidates.size(),
                            sims.data());
  for (std::size_t i = 0; i < fetched.size(); ++i) {
    const std::uint64_t score =
        SimilarityScore(system_->config().similarity, sims[i].score,
                        mine.Length(), fetched[i].snapshot->Length());
    if (score == 0) continue;
    plan->probes.push_back(PlannedProbe{score, std::move(fetched[i])});
  }
}

void LazyProtocol::PlanTopLayer(P3QNode* node, const PlanContext& ctx,
                                GossipMessage* plan) {
  const Network& net = system_->network();
  std::vector<UserId> skip;
  for (int attempt = 0; attempt <= system_->config().offline_retry; ++attempt) {
    const UserId dest = node->network().OldestNeighbour(skip);
    if (dest == kInvalidUser) return;
    if (!net.IsOnline(dest)) {
      skip.push_back(dest);
      continue;
    }
    plan->exchange =
        PlanProfileExchange(system_, node->id(), dest, ctx.rng,
                            &system_->network().ShardTraffic(ctx.shard));
    return;
  }
}

void LazyProtocol::PlanCycle(UserId node_id, const PlanContext& ctx) {
  auto plan = std::make_unique<GossipMessage>();
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

void LazyProtocol::EncodeExchangePlan(const ProfileExchangePlan& plan,
                                      CheckpointWriter* out,
                                      ProfilePool* pool) {
  out->U32(plan.a);
  out->U32(plan.b);
  for (const std::vector<ProfileExchangeOffer>* offers :
       {&plan.offers_to_b, &plan.offers_to_a}) {
    out->U64(offers->size());
    for (const ProfileExchangeOffer& offer : *offers) {
      out->U64(offer.score);
      WriteDigestInfo(out, pool, offer.digest);
      out->U64(offer.rest_bytes);
    }
  }
}

ProfileExchangePlan LazyProtocol::DecodeExchangePlan(
    CheckpointReader* in, const ProfileTable& profiles) {
  ProfileExchangePlan plan;
  plan.a = in->U32();
  plan.b = in->U32();
  for (std::vector<ProfileExchangeOffer>* offers :
       {&plan.offers_to_b, &plan.offers_to_a}) {
    const std::uint64_t count = in->Count(24);
    offers->reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      ProfileExchangeOffer offer;
      offer.score = in->U64();
      offer.digest = ReadDigestInfo(in, profiles);
      offer.rest_bytes = in->U64();
      offers->push_back(std::move(offer));
    }
  }
  if (plan.Planned() && plan.b == kInvalidUser) {
    throw CheckpointError(
        "corrupt checkpoint: profile exchange with only one endpoint");
  }
  return plan;
}

void LazyProtocol::EncodeMessage(const DeliveryMessage& message,
                                 CheckpointWriter* out,
                                 ProfilePool* pool) const {
  const auto& plan = static_cast<const GossipMessage&>(message);
  out->U64(plan.view_removals.size());
  for (UserId u : plan.view_removals) out->U32(u);
  out->U32(plan.bottom_peer);
  for (const std::vector<DigestInfo>* payload :
       {&plan.send_payload, &plan.recv_payload}) {
    out->U64(payload->size());
    for (const DigestInfo& d : *payload) WriteDigestInfo(out, pool, d);
  }
  out->U64(plan.probes.size());
  for (const PlannedProbe& probe : plan.probes) {
    out->U64(probe.score);
    WriteDigestInfo(out, pool, probe.digest);
  }
  EncodeExchangePlan(plan.exchange, out, pool);
}

std::unique_ptr<DeliveryMessage> LazyProtocol::DecodeMessage(
    CheckpointReader* in, const ProfileTable& profiles) const {
  auto plan = std::make_unique<GossipMessage>();
  const std::uint64_t num_removals = in->Count(4);
  plan->view_removals.reserve(static_cast<std::size_t>(num_removals));
  for (std::uint64_t i = 0; i < num_removals; ++i) {
    plan->view_removals.push_back(in->U32());
  }
  plan->bottom_peer = in->U32();
  for (std::vector<DigestInfo>* payload :
       {&plan->send_payload, &plan->recv_payload}) {
    const std::uint64_t count = in->Count(8);
    payload->reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      payload->push_back(ReadDigestInfo(in, profiles));
    }
  }
  const std::uint64_t num_probes = in->Count(16);
  plan->probes.reserve(static_cast<std::size_t>(num_probes));
  for (std::uint64_t i = 0; i < num_probes; ++i) {
    PlannedProbe probe;
    probe.score = in->U64();
    probe.digest = ReadDigestInfo(in, profiles);
    plan->probes.push_back(std::move(probe));
  }
  plan->exchange = DecodeExchangePlan(in, profiles);
  return plan;
}

void LazyProtocol::CommitMessage(UserId sender, std::uint64_t send_cycle,
                                 std::uint64_t cycle, DeliveryMessage& message,
                                 Rng* rng) {
  auto& plan = static_cast<GossipMessage&>(message);
  P3QNode* node = &system_->node(sender);

  // Bottom layer: drop unresponsive peers, then both sides of the shuffle
  // keep a random subset of the union (the peer's merge chains after any
  // merge an earlier commit already applied to her view).
  for (UserId r : plan.view_removals) node->random_view().Remove(r);
  if (plan.bottom_peer != kInvalidUser) {
    node->random_view().Merge(plan.recv_payload, rng);
    system_->node(plan.bottom_peer).random_view().Merge(plan.send_payload, rng);
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
    CommitProfileExchange(system_, plan.exchange);
    node->network().TouchGossiped(dest);
    system_->node(dest).network().ResetTimestamp(sender);
    if (Tracer* tracer = system_->tracer(); tracer != nullptr) {
      TraceEvent event;
      event.cycle = cycle;
      event.kind = TraceEventKind::kGossipCommitted;
      event.node = sender;
      event.peer = dest;
      event.value = static_cast<std::int64_t>(cycle - send_cycle);
      tracer->Emit(event);
    }
  }
}

}  // namespace p3q
