// Integration tests for the eager mode: collaborative query processing,
// the α remaining-list split, partition soundness, traffic and churn.
#include <algorithm>
#include <functional>
#include <vector>

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

using Env = test::TestSystem;

TEST(EagerProtocolTest, LocalResultAvailableAtCycleZero) {
  Env env;
  const std::uint64_t qid = env.system->IssueQuery(env.QueryOf(3));
  const ActiveQuery& q = env.system->query(qid);
  ASSERT_EQ(q.history().size(), 1u);
  EXPECT_FALSE(q.history()[0].top_k.empty());
  // Exactly the stored profiles contributed.
  EXPECT_EQ(q.history()[0].used_profiles,
            env.system->node(3).network().StoredProfiles().size());
}

TEST(EagerProtocolTest, CompletesWithRecallOne) {
  Env env;
  const QuerySpec spec = env.QueryOf(5);
  const std::vector<ItemId> reference =
      ReferenceTopK(*env.system, spec, env.config.top_k);
  const std::uint64_t qid = env.system->IssueQuery(spec);
  env.system->RunEagerCycles(15);
  ASSERT_TRUE(env.system->QueryComplete(qid));
  const ActiveQuery& q = env.system->query(qid);
  EXPECT_DOUBLE_EQ(
      RecallAtK(q.CurrentTopKItems(), reference), 1.0);
  // Every profile of the personal network was used exactly once.
  EXPECT_EQ(q.NumUsedProfiles(), q.expected_profiles());
}

TEST(EagerProtocolTest, PartitionNeverUsesAProfileTwice) {
  Env env;
  const std::uint64_t qid = env.system->IssueQuery(env.QueryOf(9));
  env.system->RunEagerCycles(15);
  const ActiveQuery& q = env.system->query(qid);
  // used_profiles is a set; if any profile were double-counted, the summed
  // message contributions would exceed the set size. Re-derive the sum.
  std::uint64_t delivered = q.traffic().partial_result_messages;
  EXPECT_GT(delivered, 0u);
  EXPECT_LE(q.NumUsedProfiles(), q.expected_profiles());
  // At completion every network member was covered exactly once.
  EXPECT_TRUE(env.system->QueryComplete(qid));
  EXPECT_EQ(q.NumUsedProfiles(), q.expected_profiles());
}

class AlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(AlphaSweep, CompletesForEveryAlpha) {
  Env env({.users = 120, .network_size = 16, .stored_profiles = 4,
           .alpha = GetParam(), .seed = 11});
  const QuerySpec spec = env.QueryOf(2);
  const std::vector<ItemId> reference =
      ReferenceTopK(*env.system, spec, env.config.top_k);
  const std::uint64_t qid = env.system->IssueQuery(spec);
  env.system->RunEagerCycles(30);
  EXPECT_TRUE(env.system->QueryComplete(qid));
  EXPECT_DOUBLE_EQ(
      RecallAtK(env.system->query(qid).CurrentTopKItems(), reference), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaSweep,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0));

TEST(EagerProtocolTest, AlphaHalfCompletesFasterThanExtremes) {
  auto cycles_to_complete = [](double alpha) {
    Env env({.users = 200, .network_size = 30, .stored_profiles = 4, .alpha = alpha, .seed = 17});
    const std::uint64_t qid = env.system->IssueQuery(env.QueryOf(4));
    int cycles = 0;
    while (!env.system->QueryComplete(qid) && cycles < 60) {
      env.system->RunEagerCycles(1);
      ++cycles;
    }
    return cycles;
  };
  const int mid = cycles_to_complete(0.5);
  const int star = cycles_to_complete(1.0);  // querier asks one by one
  EXPECT_LT(mid, star);
}

TEST(EagerProtocolTest, TracksTrafficAndReach) {
  Env env;
  const std::uint64_t qid = env.system->IssueQuery(env.QueryOf(7));
  env.system->RunEagerCycles(15);
  const ActiveQuery& q = env.system->query(qid);
  EXPECT_GT(q.traffic().forwarded_list_bytes, 0u);
  EXPECT_GT(q.traffic().returned_list_bytes, 0u);
  EXPECT_GT(q.traffic().partial_result_bytes, 0u);
  EXPECT_GT(q.traffic().forward_messages, 0u);
  EXPECT_EQ(q.traffic().forward_messages, q.traffic().return_messages);
  const std::vector<UserId>& reached = env.system->QueryReached(qid);
  EXPECT_GE(reached.size(), 2u);
  EXPECT_TRUE(std::binary_search(reached.begin(), reached.end(), 7u));
  // A set of users: strictly ascending.
  EXPECT_TRUE(std::adjacent_find(reached.begin(), reached.end(),
                                 std::greater_equal<UserId>()) ==
              reached.end());
}

TEST(EagerProtocolTest, UsedProfilesGrowMonotonically) {
  Env env;
  const std::uint64_t qid = env.system->IssueQuery(env.QueryOf(11));
  env.system->RunEagerCycles(15);
  const auto& history = env.system->query(qid).history();
  for (std::size_t i = 1; i < history.size(); ++i) {
    EXPECT_GE(history[i].used_profiles, history[i - 1].used_profiles);
  }
  EXPECT_TRUE(history.back().complete);
}

TEST(EagerProtocolTest, EagerGossipRefreshesPersonalNetworks) {
  // Piggybacked maintenance: after an update batch, running only eager
  // cycles (no lazy) must refresh some replicas among reached users.
  Env env({.users = 150, .network_size = 20, .stored_profiles = 5, .alpha = 0.5, .seed = 23});
  Rng rng(29);
  const UpdateBatch batch = env.trace.MakeUpdateBatch(UpdateConfig{}, &rng);
  ASSERT_GT(batch.NumChangedUsers(), 0u);
  env.system->ApplyUpdateBatch(batch);

  const Metrics before = env.system->metrics().Snapshot();
  const std::uint64_t qid = env.system->IssueQuery(env.QueryOf(13));
  env.system->RunEagerCycles(10);
  (void)qid;
  const Metrics delta = env.system->metrics().Since(before);
  // The piggyback produces lazy-type traffic during eager cycles.
  EXPECT_GT(delta.Of(MessageType::kLazyDigestProposal).messages, 0u);
}

TEST(EagerProtocolTest, ForgetReleasesState) {
  Env env;
  const std::uint64_t qid = env.system->IssueQuery(env.QueryOf(2));
  env.system->RunEagerCycles(15);
  EXPECT_TRUE(env.system->QueryComplete(qid));
  env.system->ForgetQuery(qid);
  EXPECT_TRUE(env.system->AllQueryIds().empty());
}

/// Nodes holding a task of query `qid`.
std::size_t NodesHoldingTask(const P3QSystem& system, std::uint64_t qid) {
  std::size_t holders = 0;
  for (UserId u = 0; u < system.NumUsers(); ++u) {
    holders += system.node(u).tasks().contains(qid) ? 1 : 0;
  }
  return holders;
}

TEST(EagerProtocolTest, ForgettingACompletedQueryLeavesNoTask) {
  Env env;
  const std::uint64_t qid = env.system->IssueQuery(env.QueryOf(2));
  env.system->RunEagerCycles(15);
  ASSERT_TRUE(env.system->QueryComplete(qid));
  env.system->ForgetQuery(qid);
  EXPECT_EQ(NodesHoldingTask(*env.system, qid), 0u);
}

TEST(EagerProtocolTest, ForgettingAnOpenQueryErasesEveryTask) {
  Env env;
  const std::uint64_t qid = env.system->IssueQuery(env.QueryOf(2));
  const std::uint64_t other = env.system->IssueQuery(env.QueryOf(7));
  env.system->RunEagerCycles(2);
  ASSERT_FALSE(env.system->QueryComplete(qid));
  ASSERT_GT(NodesHoldingTask(*env.system, qid), 1u)
      << "the query's gossip should have reached past the querier";
  const std::size_t other_holders = NodesHoldingTask(*env.system, other);
  ASSERT_GT(other_holders, 0u);
  env.system->ForgetQuery(qid);
  EXPECT_EQ(NodesHoldingTask(*env.system, qid), 0u);
  EXPECT_EQ(NodesHoldingTask(*env.system, other), other_holders);
  env.system->RunEagerCycles(15);
  EXPECT_TRUE(env.system->QueryComplete(other));
}

TEST(EagerProtocolTest, MultipleConcurrentQueriesStayIndependent) {
  Env env;
  std::vector<std::uint64_t> ids;
  std::vector<std::vector<ItemId>> refs;
  for (UserId u = 20; u < 26; ++u) {
    const QuerySpec spec = env.QueryOf(u);
    refs.push_back(ReferenceTopK(*env.system, spec, env.config.top_k));
    ids.push_back(env.system->IssueQuery(spec));
  }
  env.system->RunEagerCycles(20);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_TRUE(env.system->QueryComplete(ids[i])) << i;
    EXPECT_DOUBLE_EQ(
        RecallAtK(env.system->query(ids[i]).CurrentTopKItems(), refs[i]), 1.0)
        << i;
  }
}

TEST(EagerProtocolTest, ChurnDegradesButDoesNotCrash) {
  Env env({.users = 200, .network_size = 30, .stored_profiles = 5, .alpha = 0.5, .seed = 31});
  env.system->FailRandomFraction(0.5);
  // Pick an online querier.
  UserId querier = 0;
  while (!env.system->network().IsOnline(querier)) ++querier;
  const QuerySpec spec = env.QueryOf(querier);
  const std::vector<ItemId> reference =
      ReferenceTopK(*env.system, spec, env.config.top_k);
  const std::uint64_t qid = env.system->IssueQuery(spec);
  env.system->RunEagerCycles(15);
  const double recall =
      RecallAtK(env.system->query(qid).CurrentTopKItems(), reference);
  // Half the population left: results degrade but stay useful (Fig. 11).
  EXPECT_GT(recall, 0.3);
}

TEST(EagerProtocolTest, QueryStallsWhenEveryoneLeft) {
  Env env({.users = 100, .network_size = 15, .stored_profiles = 4, .alpha = 0.5, .seed = 37});
  // Everyone except the querier departs; gossip cannot reach anyone.
  const UserId querier = 42;
  for (UserId u = 0; u < 100; ++u) {
    if (u != querier) env.system->network().SetOnline(u, false);
  }
  const std::uint64_t qid = env.system->IssueQuery(env.QueryOf(querier));
  env.system->RunEagerCycles(10);
  EXPECT_FALSE(env.system->QueryComplete(qid));
  const ActiveQuery& q = env.system->query(qid);
  // Only the local result is available; used profiles never grow beyond c.
  EXPECT_LE(q.NumUsedProfiles(),
            static_cast<std::size_t>(env.config.stored_profiles));
}

TEST(EagerProtocolTest, EmptyTagQueryCompletesImmediatelyWhenAllStored) {
  // c == s: everything stored, no gossip needed (Algorithm 2 line 4).
  Env env({.users = 80, .network_size = 10, .stored_profiles = 10, .alpha = 0.5, .seed = 41});
  const QuerySpec spec = env.QueryOf(1);
  const std::uint64_t qid = env.system->IssueQuery(spec);
  EXPECT_TRUE(env.system->QueryComplete(qid));
  const ActiveQuery& q = env.system->query(qid);
  EXPECT_TRUE(q.history()[0].complete);
  EXPECT_EQ(q.NumUsedProfiles(), q.expected_profiles());
}

}  // namespace
}  // namespace p3q
