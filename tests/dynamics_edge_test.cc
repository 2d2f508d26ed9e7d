// Edge interactions between the protocol's moving parts: profile updates
// landing mid-query, users departing and rejoining, and stale-replica
// serving under churn.
#include <gtest/gtest.h>

#include "baseline/centralized_topk.h"
#include "baseline/ideal_network.h"
#include "core/p3q_system.h"
#include "dataset/generator.h"
#include "dataset/query_gen.h"
#include "eval/recall.h"
#include "test_util.h"

namespace p3q {
namespace {

// The suite's deployment: s=15 personal networks seeded from the ideal
// k-NN graph, so dynamism tests start from converged state.
test::TestSystem MakeEnv() {
  return test::TestSystem({.network_size = 15, .seed = 5});
}

TEST(DynamicsEdgeTest, UpdateBatchMidQueryKeepsProcessingSound) {
  auto env = MakeEnv();
  Rng rng(7);
  const QuerySpec spec = GenerateQueryForUser(env.trace.dataset(), 3, &rng);
  ASSERT_FALSE(spec.tags.empty());
  const std::uint64_t qid = env.system->IssueQuery(spec);
  env.system->RunEagerCycles(2);

  // Profiles change while the query is in flight.
  UpdateConfig heavy;
  heavy.changed_user_fraction = 0.5;
  const UpdateBatch batch = env.trace.MakeUpdateBatch(heavy, &rng);
  ASSERT_GT(batch.NumChangedUsers(), 0u);
  env.system->ApplyUpdateBatch(batch);

  env.system->RunEagerCycles(20);
  ASSERT_TRUE(env.system->QueryComplete(qid));
  const ActiveQuery& q = env.system->query(qid);
  // Partition invariant survives the mid-flight update: every network
  // member contributed exactly once, no duplicates, no losses.
  EXPECT_EQ(q.NumUsedProfiles(), q.expected_profiles());
  // The merged result is internally consistent (worst == best after drain).
  for (const RankedItem& r : q.history().back().top_k) {
    EXPECT_EQ(r.worst, r.best);
  }
}

TEST(DynamicsEdgeTest, RejoiningUsersServeAgain) {
  auto env = MakeEnv();
  // Take user 10's whole neighbourhood offline, then bring them back.
  std::vector<UserId> members = env.system->node(10).network().Members();
  for (UserId v : members) env.system->network().SetOnline(v, false);

  Rng rng(11);
  QuerySpec spec = GenerateQueryForUser(env.trace.dataset(), 10, &rng);
  ASSERT_FALSE(spec.tags.empty());
  const std::uint64_t q1 = env.system->IssueQuery(spec);
  env.system->RunEagerCycles(10);
  EXPECT_FALSE(env.system->QueryComplete(q1));  // everyone relevant is gone

  for (UserId v : members) env.system->network().SetOnline(v, true);
  env.system->RunEagerCycles(20);
  // The stalled query resumes after the rejoin and completes.
  EXPECT_TRUE(env.system->QueryComplete(q1));
  EXPECT_EQ(env.system->query(q1).NumUsedProfiles(),
            env.system->query(q1).expected_profiles());
}

TEST(DynamicsEdgeTest, StaleReplicasKeepServingDepartedUsers) {
  auto env = MakeEnv();
  // Update some profiles, then their owners leave before gossip refreshes
  // anything: replicas are stale but must still serve queries (the paper:
  // "if the owner has left, the replicas of her profile would not be
  // out-of-date because ... no new tagging actions can be added during her
  // absence" — here they are stale w.r.t. the pre-departure update, which
  // is the worst case).
  Rng rng(13);
  const UpdateBatch batch = env.trace.MakeUpdateBatch(UpdateConfig{}, &rng);
  env.system->ApplyUpdateBatch(batch);
  for (const ProfileUpdate& u : batch.updates) {
    env.system->network().SetOnline(u.user, false);
  }
  int attempted = 0;
  std::size_t departed_served = 0;
  for (UserId querier = 0; querier < 30; ++querier) {
    if (!env.system->network().IsOnline(querier)) continue;
    const QuerySpec spec =
        GenerateQueryForUser(env.trace.dataset(), querier, &rng);
    if (spec.tags.empty()) continue;
    const std::uint64_t qid = env.system->IssueQuery(spec);
    env.system->RunEagerCycles(15);
    ++attempted;
    for (UserId u : env.system->query(qid).used_profiles()) {
      if (!env.system->network().IsOnline(u)) ++departed_served;
    }
    env.system->ForgetQuery(qid);
  }
  ASSERT_GT(attempted, 5);
  // Departed users' profiles were repeatedly served from replicas held by
  // the survivors.
  EXPECT_GT(departed_served, static_cast<std::size_t>(attempted));
}

TEST(DynamicsEdgeTest, LazyGossipAfterMassUpdateRestoresRecall) {
  auto env = MakeEnv();
  Rng rng(17);
  UpdateConfig heavy;
  heavy.changed_user_fraction = 0.7;
  heavy.mean_new_actions = 40;
  const UpdateBatch batch = env.trace.MakeUpdateBatch(heavy, &rng);
  env.system->ApplyUpdateBatch(batch);

  auto avg_recall = [&]() {
    double sum = 0;
    int n = 0;
    for (UserId querier = 40; querier < 60; ++querier) {
      const QuerySpec spec =
          GenerateQueryForUser(env.trace.dataset(), querier, &rng);
      if (spec.tags.empty()) continue;
      const std::vector<ItemId> reference =
          ReferenceTopK(*env.system, spec, env.config.top_k);
      const std::uint64_t qid = env.system->IssueQuery(spec);
      env.system->RunEagerCycles(15);
      sum += RecallAtK(env.system->query(qid).CurrentTopKItems(), reference);
      ++n;
      env.system->ForgetQuery(qid);
    }
    return sum / n;
  };
  const double stale = avg_recall();
  env.system->RunLazyCycles(80);  // refresh replicas
  const double fresh = avg_recall();
  // Freshly-gossiped replicas answer closer to the up-to-date reference.
  EXPECT_GE(fresh, stale);
  EXPECT_GT(fresh, 0.9);
}

TEST(DynamicsEdgeTest, QuerierHerselfChangingProfileDoesNotBreakQueries) {
  auto env = MakeEnv();
  Rng rng(19);
  const QuerySpec spec = GenerateQueryForUser(env.trace.dataset(), 8, &rng);
  ASSERT_FALSE(spec.tags.empty());
  const std::uint64_t qid = env.system->IssueQuery(spec);
  env.system->RunEagerCycles(1);
  // The querier tags new items mid-query.
  env.system->profile_store().ApplyUpdate(
      8, {MakeAction(999999, 1), MakeAction(999998, 2)});
  env.system->node(8).SetOwnProfile(env.system->profile_store().Get(8));
  env.system->RunEagerCycles(20);
  EXPECT_TRUE(env.system->QueryComplete(qid));
}

TEST(DynamicsEdgeTest, RepeatedUpdateBatchesMonotoneVersions) {
  auto env = MakeEnv();
  Rng rng(23);
  for (int day = 0; day < 5; ++day) {
    const UpdateBatch batch = env.trace.MakeUpdateBatch(UpdateConfig{}, &rng);
    env.system->ApplyUpdateBatch(batch);
    env.system->RunLazyCycles(5);
  }
  // Every node's own snapshot matches the store; replicas never exceed the
  // owner's current version.
  for (UserId u = 0; u < 150; ++u) {
    EXPECT_EQ(env.system->node(u).profile()->version(),
              env.system->profile_store().CurrentVersion(u));
    const PersonalNetwork& network = env.system->node(u).network();
    for (const NetworkEntry& e : network.entries()) {
      if (e.HasStoredProfile()) {
        EXPECT_LE(network.StoredProfileOf(e)->version(),
                  env.system->profile_store().CurrentVersion(e.user));
      }
    }
  }
}

}  // namespace
}  // namespace p3q
