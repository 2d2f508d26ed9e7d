// Integration tests for the lazy mode: convergence, the 3-step exchange's
// traffic accounting, storage bounds, update dissemination, and how long
// its messages hold their snapshots.
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/ideal_network.h"
#include "core/lazy_protocol.h"
#include "core/p3q_system.h"
#include "dataset/generator.h"
#include "eval/metrics_eval.h"
#include "obs/trace.h"
#include "sim/checkpoint.h"
#include "sim/engine.h"
#include "test_util.h"

namespace p3q {
namespace {

using test::SmallTrace;

// This suite historically runs with a random view of 8 (not the P3QConfig
// default of 10); keep that pinned so the gossip streams stay identical.
P3QConfig SmallConfig() { return test::SmallConfig(20, 5, 0.5, 8); }

TEST(LazyProtocolTest, ConvergesTowardIdealNetworks) {
  const SyntheticTrace trace = SmallTrace();
  const P3QConfig config = SmallConfig();
  P3QSystem system(trace.dataset(), config, {}, 99);
  system.BootstrapRandomViews();
  const IdealNetworks ideal =
      ComputeIdealNetworks(trace.dataset(), config.network_size);

  const double before = AverageSuccessRatio(system, ideal);
  system.RunLazyCycles(15);
  const double mid = AverageSuccessRatio(system, ideal);
  system.RunLazyCycles(35);
  const double after = AverageSuccessRatio(system, ideal);
  EXPECT_LT(before, 0.1);
  EXPECT_GT(mid, before);
  EXPECT_GT(after, 0.7);
}

TEST(LazyProtocolTest, StorageBoundNeverExceeded) {
  const SyntheticTrace trace = SmallTrace();
  P3QConfig config = SmallConfig();
  config.stored_profiles = 3;
  P3QSystem system(trace.dataset(), config, {}, 7);
  system.BootstrapRandomViews();
  system.RunLazyCycles(25);
  for (UserId u = 0; u < static_cast<UserId>(system.NumUsers()); ++u) {
    const PersonalNetwork& net = system.node(u).network();
    EXPECT_LE(net.StoredProfiles().size(), 3u);
    EXPECT_LE(net.size(), static_cast<std::size_t>(config.network_size));
  }
}

TEST(LazyProtocolTest, NetworkScoresAreExactSimilarities) {
  const SyntheticTrace trace = SmallTrace();
  P3QSystem system(trace.dataset(), SmallConfig(), {}, 11);
  system.BootstrapRandomViews();
  system.RunLazyCycles(20);
  for (UserId u = 0; u < 30; ++u) {
    const P3QNode& node = system.node(u);
    for (const NetworkEntry& e : node.network().entries()) {
      // The entry's score is the similarity against the snapshot version the
      // digest was computed from. No profile changes in this run, so that
      // version is the store's snapshot of the neighbour.
      const ProfilePtr& snapshot = system.profile_store().Get(e.user);
      ASSERT_EQ(snapshot->version(), e.digest_version)
          << "user " << u << " neighbour " << e.user;
      EXPECT_EQ(e.score, CountCommonActions(node.profile()->actions(),
                                            snapshot->actions()))
          << "user " << u << " neighbour " << e.user;
      EXPECT_GT(e.score, 0u);
    }
  }
}

TEST(LazyProtocolTest, ThreeStepExchangeAccountsAllMessageKinds) {
  const SyntheticTrace trace = SmallTrace();
  P3QSystem system(trace.dataset(), SmallConfig(), {}, 13);
  system.BootstrapRandomViews();
  system.RunLazyCycles(10);
  const Metrics& m = system.metrics();
  EXPECT_GT(m.Of(MessageType::kRandomViewGossip).messages, 0u);
  EXPECT_GT(m.Of(MessageType::kLazyDigestProposal).messages, 0u);
  EXPECT_GT(m.Of(MessageType::kLazyCommonItems).messages, 0u);
  EXPECT_GT(m.Of(MessageType::kLazyFullProfile).messages, 0u);
  EXPECT_GT(m.Of(MessageType::kDirectProfileFetch).messages, 0u);
  // No eager traffic in lazy-only runs.
  EXPECT_EQ(m.Of(MessageType::kEagerQueryForward).messages, 0u);
  EXPECT_EQ(m.Of(MessageType::kPartialResult).messages, 0u);
}

TEST(LazyProtocolTest, DigestProposalBytesMatchDigestSize) {
  const SyntheticTrace trace = SmallTrace(80);
  P3QConfig config = SmallConfig();
  config.digest_bits = 20 * 1024;
  P3QSystem system(trace.dataset(), config, {}, 17);
  system.BootstrapRandomViews();
  system.RunLazyCycles(3);
  const MessageStats& proposals =
      system.metrics().Of(MessageType::kLazyDigestProposal);
  ASSERT_GT(proposals.messages, 0u);
  // Every proposal message carries at least one digest (2560 B + id).
  EXPECT_GE(proposals.bytes, proposals.messages * (2560 + 4));
}

TEST(LazyProtocolTest, UpdatesDisseminateToReplicas) {
  const SyntheticTrace trace = SmallTrace(120);
  P3QConfig config = SmallConfig();
  P3QSystem system(trace.dataset(), config, {}, 19);
  system.BootstrapRandomViews();
  system.RunLazyCycles(40);  // build networks first

  Rng rng(23);
  const UpdateBatch batch = trace.MakeUpdateBatch(UpdateConfig{}, &rng);
  ASSERT_GT(batch.NumChangedUsers(), 0u);
  system.ApplyUpdateBatch(batch);
  const auto changed = ChangedUsers(batch);

  const double aur0 = AverageUpdateRate(system, changed);
  system.RunLazyCycles(15);
  const double aur1 = AverageUpdateRate(system, changed);
  system.RunLazyCycles(35);
  const double aur2 = AverageUpdateRate(system, changed);
  EXPECT_LT(aur0, 0.2);
  EXPECT_GT(aur1, aur0);
  EXPECT_GT(aur2, 0.6);  // small c keeps replicas fresh (paper Fig. 7)
}

TEST(LazyProtocolTest, OwnProfileUpdateReflectedInOwnNode) {
  const SyntheticTrace trace = SmallTrace(60);
  P3QSystem system(trace.dataset(), SmallConfig(), {}, 29);
  Rng rng(31);
  const UpdateBatch batch = trace.MakeUpdateBatch(UpdateConfig{}, &rng);
  ASSERT_GT(batch.NumChangedUsers(), 0u);
  system.ApplyUpdateBatch(batch);
  for (const ProfileUpdate& u : batch.updates) {
    EXPECT_EQ(system.node(u.user).profile()->version(), 1u);
    EXPECT_EQ(system.node(u.user).SelfDigest().version(), 1u);
  }
}

TEST(LazyProtocolTest, SurvivesOfflineMajority) {
  const SyntheticTrace trace = SmallTrace(100);
  P3QSystem system(trace.dataset(), SmallConfig(), {}, 37);
  system.BootstrapRandomViews();
  system.RunLazyCycles(10);
  const std::vector<UserId> failed = system.FailRandomFraction(0.6);
  const std::set<UserId> dead(failed.begin(), failed.end());
  VectorTraceSink sink;
  Tracer tracer(&sink);
  system.SetTracer(&tracer);
  // Gossip must keep running among survivors, and the dead plan nothing.
  const Metrics before = system.metrics().Snapshot();
  system.RunLazyCycles(10);
  const Metrics delta = system.metrics().Since(before);
  EXPECT_GT(delta.TotalMessages(), 0u);
  tracer.Finish();
  std::size_t planned = 0;
  for (const TraceEvent& event : sink.events()) {
    if (event.kind != TraceEventKind::kGossipPlanned) continue;
    ++planned;
    EXPECT_FALSE(dead.contains(event.node))
        << "offline user " << event.node << " planned in cycle "
        << event.cycle;
  }
  EXPECT_GT(planned, 0u);
}

TEST(LazyProtocolTest, DeterministicForSameSeed) {
  const SyntheticTrace trace = SmallTrace(80);
  auto run = [&trace]() {
    P3QSystem system(trace.dataset(), SmallConfig(), {}, 41);
    system.BootstrapRandomViews();
    system.RunLazyCycles(12);
    return system.metrics().TotalBytes();
  };
  EXPECT_EQ(run(), run());
}

TEST(LazyProtocolTest, OffersOwnTheirSnapshotsWhileProposalsBorrow) {
  // Proposals borrow the proposer's replicas; an offer that survives the
  // screens owns its snapshot. So a planned exchange still commits when
  // every other handle of an offered snapshot is gone by commit time.
  const SyntheticTrace trace = SmallTrace();
  P3QSystem system(trace.dataset(), SmallConfig(), {}, 43);
  // No random views and empty networks: the store, the owner's node and
  // the replicas stored below are the only handles of a snapshot.
  const UserId a = 0;
  const UserId b = 1;
  const Profile& profile_a = *system.node(a).profile();
  const Profile& profile_b = *system.node(b).profile();
  PersonalNetwork& proposer = system.node(a).network();
  for (UserId w = 2; w < system.NumUsers() && proposer.size() < 3; ++w) {
    const ProfilePtr& snapshot = system.profile_store().Get(w);
    const std::uint64_t score = system.ScoreBetween(profile_a, *snapshot);
    if (score == 0 || system.ScoreBetween(profile_b, *snapshot) == 0) continue;
    proposer.Consider(w, score, DigestInfo{w, snapshot}, snapshot);
  }
  ASSERT_EQ(proposer.StoredProfiles().size(), 3u);

  Rng rng(47);
  Metrics traffic;
  ProfileExchangePlan plan;
  LazyProtocol::PlanProfileExchange(&system, a, b, &rng, &traffic, &plan);
  // b knows nobody, so each replica a proposes survives b's screens.
  ASSERT_GE(plan.offers_to_b.size(), 3u);

  // Drop every other handle: the proposer forgets her entries and every
  // offered owner publishes a new profile.
  std::vector<std::pair<UserId, std::weak_ptr<const Profile>>> offered;
  UpdateBatch batch;
  for (const auto* offers : {&plan.offers_to_b, &plan.offers_to_a}) {
    for (const ProfileExchangeOffer& offer : *offers) {
      offered.emplace_back(offer.digest.user, offer.digest.snapshot);
      proposer.Remove(offer.digest.user);
      batch.updates.push_back(ProfileUpdate{offer.digest.user, {}});
    }
  }
  system.ApplyUpdateBatch(batch);
  ASSERT_TRUE(proposer.StoredProfiles().empty());
  for (const auto& [user, weak] : offered) {
    SCOPED_TRACE("offered user " + std::to_string(user));
    ASSERT_FALSE(weak.expired());
    EXPECT_EQ(weak.use_count(), 1);  // the offer is the last owner
    EXPECT_NE(system.profile_store().Get(user), weak.lock());
  }

  LazyProtocol::CommitProfileExchange(&system, plan, &traffic);
  for (const auto* offers : {&plan.offers_to_b, &plan.offers_to_a}) {
    const PersonalNetwork& receiver =
        system.node(offers == &plan.offers_to_b ? b : a).network();
    for (const ProfileExchangeOffer& offer : *offers) {
      EXPECT_EQ(receiver.StoredProfileOf(offer.digest.user),
                offer.digest.snapshot)
          << "offered user " << offer.digest.user;
    }
  }
}

TEST(LazyProtocolTest, MemoryStatsAttributeProbeMemosAndNetworks) {
  const SyntheticTrace trace = SmallTrace();
  P3QSystem system(trace.dataset(), SmallConfig(), {}, 17);
  system.BootstrapRandomViews();
  system.RunLazyCycles(3);
  const SystemMemoryStats stats = system.MemoryStats();
  EXPECT_GT(stats.probe_memo_bytes, 0u);
  EXPECT_GT(stats.personal_network_bytes, 0u);
  std::size_t memo_slots = 0;
  std::size_t memo_entries = 0;
  std::size_t index_bytes = 0;
  for (UserId u = 0; u < static_cast<UserId>(system.NumUsers()); ++u) {
    memo_slots += system.node(u).probed_versions().slot_count();
    memo_entries += system.node(u).probed_versions().size();
    index_bytes += system.node(u).network().IndexBytes();
  }
  // Five bytes a slot: every version is below 255, so no side map.
  EXPECT_EQ(stats.probe_memo_bytes, memo_slots * 5);
  EXPECT_GT(memo_entries, 0u);
  EXPECT_EQ(stats.probe_memo_entries, memo_entries);
  EXPECT_LE(memo_entries * 8, memo_slots * 7);
  EXPECT_GT(index_bytes, 0u);
  EXPECT_EQ(stats.network_index_bytes, index_bytes);
  EXPECT_LT(stats.network_index_bytes, stats.personal_network_bytes);
}

TEST(LazyProtocolTest, MemoryStatsAttributeViewsAndInFlightMessages) {
  const SyntheticTrace trace = SmallTrace();
  P3QSystem system(trace.dataset(), SmallConfig(), {}, 17);
  system.BootstrapRandomViews();
  system.RunLazyCycles(3);
  const SystemMemoryStats stats = system.MemoryStats();
  std::size_t view_capacity = 0;
  for (UserId u = 0; u < static_cast<UserId>(system.NumUsers()); ++u) {
    view_capacity += system.node(u).random_view().entries().capacity();
  }
  EXPECT_GT(view_capacity, 0u);
  EXPECT_EQ(stats.random_view_bytes, view_capacity * sizeof(DigestInfo));
  // Lazy cycles only: the eager queue never held a message.
  EXPECT_GT(stats.peak_in_flight_messages, 0u);
  EXPECT_EQ(stats.peak_in_flight_messages,
            system.DeliveryStatsTotal().max_in_flight);
  // Zero latency: a cycle's payload arenas go back to the heap in the
  // cycle that fills them.
  EXPECT_GT(stats.peak_message_arena_bytes, 0u);
  EXPECT_EQ(stats.message_arena_bytes, 0u);

  // Under fixed:2 the last two send cycles' arenas are held at a barrier.
  P3QSystem lagged(trace.dataset(), SmallConfig(), {}, 17);
  lagged.SetLatency(test::Latency("fixed:2"));
  lagged.BootstrapRandomViews();
  lagged.RunLazyCycles(3);
  const SystemMemoryStats held = lagged.MemoryStats();
  EXPECT_GT(held.message_arena_bytes, 0u);
  EXPECT_LE(held.message_arena_bytes, held.peak_message_arena_bytes);
}

/// Every snapshot the system's state holds between cycles: the store's
/// current ones, each node's own, and those in random views and stored
/// replicas.
std::set<const Profile*> HeldByState(const P3QSystem& system) {
  std::set<const Profile*> held;
  for (UserId u = 0; u < static_cast<UserId>(system.NumUsers()); ++u) {
    const P3QNode& node = system.node(u);
    held.insert(system.profile_store().Get(u).get());
    held.insert(node.profile().get());
    for (const DigestInfo& d : node.random_view().entries()) {
      held.insert(d.snapshot.get());
    }
    for (const ProfilePtr* replica : node.network().StoredProfiles()) {
      held.insert(replica->get());
    }
  }
  return held;
}

/// Publishes a new profile for every user; returns the replaced snapshots.
std::vector<std::weak_ptr<const Profile>> UpdateEveryone(P3QSystem* system) {
  std::vector<std::weak_ptr<const Profile>> old;
  UpdateBatch batch;
  for (UserId u = 0; u < static_cast<UserId>(system->NumUsers()); ++u) {
    old.emplace_back(system->profile_store().Get(u));
    batch.updates.push_back(ProfileUpdate{u, {}});
  }
  system->ApplyUpdateBatch(batch);
  return old;
}

/// How many of `snapshots` are gone; every live one must be held by the
/// system's state.
std::size_t FreedOrHeldByState(
    const P3QSystem& system,
    const std::vector<std::weak_ptr<const Profile>>& snapshots) {
  const std::set<const Profile*> held = HeldByState(system);
  std::size_t freed = 0;
  for (const std::weak_ptr<const Profile>& weak : snapshots) {
    const ProfilePtr snapshot = weak.lock();
    if (snapshot == nullptr) {
      ++freed;
      continue;
    }
    EXPECT_TRUE(held.contains(snapshot.get()))
        << "user " << snapshot->owner() << " version " << snapshot->version()
        << " outlived the messages that carried it";
  }
  return freed;
}

TEST(LazyProtocolTest, ACycleFreesTheSnapshotsOnlyItsMessagesHeld) {
  const SyntheticTrace trace = SmallTrace();
  P3QSystem system(trace.dataset(), SmallConfig(), {}, 53);
  system.SetThreads(4);
  system.BootstrapRandomViews();
  system.RunLazyCycles(3);
  // Each replaced snapshot lives on only where a view, a replica or one of
  // the next cycle's messages holds it.
  const std::vector<std::weak_ptr<const Profile>> old = UpdateEveryone(&system);
  system.RunLazyCycles(1);
  EXPECT_GT(FreedOrHeldByState(system, old), 0u);
}

TEST(LazyProtocolTest, InFlightMessagesPinTheirSnapshotsUntilTheyLand) {
  const SyntheticTrace trace = SmallTrace();
  P3QSystem system(trace.dataset(), SmallConfig(), {}, 59);
  system.SetThreads(4);
  system.BootstrapRandomViews();
  system.RunLazyCycles(3);
  system.SetLatency(test::Latency("fixed:2"));
  system.RunLazyCycles(1);  // cycle 3's messages land in cycle 5
  system.SetLatency(test::Latency("fixed:3"));
  system.RunLazyCycles(1);  // cycle 4's land in cycle 7
  system.SetLatency(LatencySpec{});
  system.RunLazyCycles(1);  // cycle 5's land at once, and so do cycle 3's

  // Cycle 4's messages, now the only ones in flight, are all that hold
  // these.
  const std::vector<std::weak_ptr<const Profile>> old = UpdateEveryone(&system);
  const std::set<const Profile*> held = HeldByState(system);
  std::vector<std::weak_ptr<const Profile>> pinned;
  for (const std::weak_ptr<const Profile>& weak : old) {
    const ProfilePtr snapshot = weak.lock();
    if (snapshot != nullptr && !held.contains(snapshot.get())) {
      pinned.push_back(weak);
    }
  }
  ASSERT_FALSE(pinned.empty());
  system.RunLazyCycles(1);  // cycle 6: they stay in flight
  for (const std::weak_ptr<const Profile>& weak : pinned) {
    EXPECT_FALSE(weak.expired());
  }
  system.RunLazyCycles(1);  // cycle 7: they land
  EXPECT_EQ(system.MessagesInFlight(), 0u);
  EXPECT_GT(FreedOrHeldByState(system, pinned), 0u);
}

/// The lazy protocol, checking that each commit leaves its message holding
/// no snapshot: the message's encoding then references no profile.
class HandleCountingProtocol : public LazyProtocol {
 public:
  using LazyProtocol::LazyProtocol;

  void CommitMessage(UserId sender, DeliveryMessage& message,
                     const CommitContext& ctx) override {
    referenced_before += ReferencedProfiles(message);
    LazyProtocol::CommitMessage(sender, message, ctx);
    referenced_after += ReferencedProfiles(message);
  }

  std::atomic<std::size_t> referenced_before{0};
  std::atomic<std::size_t> referenced_after{0};

 private:
  std::size_t ReferencedProfiles(const DeliveryMessage& message) const {
    CheckpointWriter out = CheckpointWriter::Measuring();
    EncodeMessage(message, &out);
    return out.pool().size();
  }
};

TEST(LazyProtocolTest, CommitDropsTheMessageSnapshotHandles) {
  const SyntheticTrace trace = SmallTrace();
  P3QSystem system(trace.dataset(), SmallConfig(), {}, 61);
  system.BootstrapRandomViews();
  HandleCountingProtocol protocol(&system);
  Engine engine(system.NumUsers(), /*seed=*/61, &protocol);
  engine.SetThreads(4);  // the drain on the workers
  engine.RunCycles(3);
  EXPECT_GT(protocol.referenced_before.load(), 0u);
  EXPECT_EQ(protocol.referenced_after.load(), 0u);
}

}  // namespace
}  // namespace p3q
