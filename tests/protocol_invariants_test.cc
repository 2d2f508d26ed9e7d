// Parameterized whole-protocol property sweeps: for a grid of populations,
// network sizes, storage levels and α values, run lazy convergence plus a
// query workload and check every invariant the protocol promises.
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

struct SweepCase {
  int users;
  int s;
  int c;
  double alpha;
  std::uint64_t seed;
};

void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << "users" << c.users << "_s" << c.s << "_c" << c.c << "_a" << c.alpha
      << "_seed" << c.seed;
}

class ProtocolSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  void SetUp() override {
    const SweepCase& param = GetParam();
    env_ = std::make_unique<test::TestSystem>(
        test::TestSystem::Options{.users = param.users,
                                  .network_size = param.s,
                                  .stored_profiles = param.c,
                                  .alpha = param.alpha,
                                  .seed = param.seed,
                                  .seed_ideal = false});
  }

  std::unique_ptr<test::TestSystem> env_;
};

TEST_P(ProtocolSweep, LazyModeInvariantsHoldEveryCycle) {
  const SweepCase& param = GetParam();
  for (int round = 0; round < 4; ++round) {
    env_->system->RunLazyCycles(5);
    for (UserId u = 0; u < static_cast<UserId>(param.users); ++u) {
      const PersonalNetwork& net = env_->system->node(u).network();
      // Size and storage bounds.
      ASSERT_LE(net.size(), static_cast<std::size_t>(param.s));
      ASSERT_LE(net.StoredProfiles().size(), static_cast<std::size_t>(param.c));
      // Entries are score-ordered, positive, self-free; replicas only in
      // the top-c prefix and owned by the right user.
      std::uint64_t last_score = ~std::uint64_t{0};
      for (std::size_t i = 0; i < net.entries().size(); ++i) {
        const NetworkEntry& e = net.entries()[i];
        ASSERT_NE(e.user, u);
        ASSERT_GT(e.score, 0u);
        ASSERT_LE(e.score, last_score);
        last_score = e.score;
        if (e.HasStoredProfile()) {
          ASSERT_LT(i, static_cast<std::size_t>(param.c));
          ASSERT_EQ(net.StoredProfileOf(e)->owner(), e.user);
          ASSERT_LE(net.StoredProfileOf(e)->version(), e.digest_version);
        }
      }
      // Random view bounded and self-free.
      ASSERT_LE(env_->system->node(u).random_view().entries().size(),
                static_cast<std::size_t>(env_->config.random_view_size));
      for (const DigestInfo& d : env_->system->node(u).random_view().entries()) {
        ASSERT_NE(d.user, u);
      }
    }
  }
}

TEST_P(ProtocolSweep, QueriesCompleteExactlyOnTheUsedProfiles) {
  const SweepCase& param = GetParam();
  env_->system->SeedNetworks(
      ComputeIdealNetworks(env_->trace.dataset(), param.s));
  Rng rng(param.seed + 99);
  for (int i = 0; i < 5; ++i) {
    const UserId querier =
        static_cast<UserId>(rng.NextUint64(param.users));
    const QuerySpec spec =
        GenerateQueryForUser(env_->trace.dataset(), querier, &rng);
    if (spec.tags.empty()) continue;
    const std::vector<ItemId> reference =
        ReferenceTopK(*env_->system, spec, env_->config.top_k);
    const std::uint64_t qid = env_->system->IssueQuery(spec);
    int guard = 0;
    while (!env_->system->QueryComplete(qid) && guard++ < 200) {
      env_->system->RunEagerCycles(1);
    }
    ASSERT_TRUE(env_->system->QueryComplete(qid));
    const ActiveQuery& q = env_->system->query(qid);
    // Partition invariant: every personal-network profile used exactly
    // once; completion implies full coverage.
    EXPECT_EQ(q.NumUsedProfiles(), q.expected_profiles());
    // The final ranking equals the centralized reference.
    EXPECT_DOUBLE_EQ(RecallAtK(q.CurrentTopKItems(), reference), 1.0);
    // Progress was monotone.
    for (std::size_t h = 1; h < q.history().size(); ++h) {
      EXPECT_GE(q.history()[h].used_profiles,
                q.history()[h - 1].used_profiles);
    }
    env_->system->ForgetQuery(qid);
  }
}

TEST_P(ProtocolSweep, TrafficAccountingIsConsistent) {
  const SweepCase& param = GetParam();
  env_->system->RunLazyCycles(5);
  const Metrics& m = env_->system->metrics();
  // Every message type carries bytes iff it was sent.
  for (int t = 0; t < static_cast<int>(MessageType::kCount); ++t) {
    const MessageStats& s = m.Of(static_cast<MessageType>(t));
    if (s.messages == 0) {
      EXPECT_EQ(s.bytes, 0u);
    }
  }
  // Digest proposals happen every top-layer exchange: at most 2 per node
  // per cycle as initiator/responder... at least one per online node pair
  // formation; sanity: count within [users, 4*users*cycles].
  const std::uint64_t proposals =
      m.Of(MessageType::kLazyDigestProposal).messages;
  EXPECT_GE(proposals, static_cast<std::uint64_t>(param.users));
  EXPECT_LE(proposals, static_cast<std::uint64_t>(param.users) * 4 * 5);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProtocolSweep,
    ::testing::Values(SweepCase{100, 10, 2, 0.5, 1},
                      SweepCase{100, 20, 5, 0.5, 2},
                      SweepCase{150, 15, 15, 0.5, 3},   // c == s
                      SweepCase{150, 15, 1, 0.5, 4},    // minimal storage
                      SweepCase{200, 20, 5, 0.0, 5},    // chain routing
                      SweepCase{200, 20, 5, 1.0, 6},    // star routing
                      SweepCase{200, 40, 10, 0.3, 7},
                      SweepCase{250, 25, 8, 0.7, 8}));

// Churn grid: invariants under partial departure.
class ChurnSweep : public ::testing::TestWithParam<double> {};

TEST_P(ChurnSweep, SystemStaysSoundUnderDeparture) {
  const double departure = GetParam();
  // Built explicitly (not via TestSystem) to keep the suite's original
  // trace/system seeds 11/13, which the recall thresholds were tuned on.
  const SyntheticTrace trace = test::SmallTrace(150, 11);
  const P3QConfig config = test::SmallConfig(15);
  P3QSystem system(trace.dataset(), config, {}, 13);
  system.BootstrapRandomViews();
  system.SeedNetworks(ComputeIdealNetworks(trace.dataset(), 15));
  system.FailRandomFraction(departure);

  Rng rng(17);
  int attempted = 0;
  double recall_sum = 0;
  // Scan the population for online queriers so even 95% departure attempts
  // some queries; cap the workload at 10.
  for (UserId querier = 0; querier < 150 && attempted < 10; ++querier) {
    if (!system.network().IsOnline(querier)) continue;
    const QuerySpec spec = GenerateQueryForUser(trace.dataset(), querier, &rng);
    if (spec.tags.empty()) continue;
    const std::vector<ItemId> reference =
        ReferenceTopK(system, spec, config.top_k);
    const std::uint64_t qid = system.IssueQuery(spec);
    system.RunEagerCycles(12);
    const ActiveQuery& q = system.query(qid);
    // Used profiles never exceed expectations even when stalled.
    EXPECT_LE(q.NumUsedProfiles(), q.expected_profiles());
    recall_sum += RecallAtK(q.CurrentTopKItems(), reference);
    ++attempted;
    system.ForgetQuery(qid);
  }
  if (departure < 1.0) {
    ASSERT_GT(attempted, 0);
    // Some useful results at every departure level.
    EXPECT_GT(recall_sum / attempted, 0.2);
  }
}

INSTANTIATE_TEST_SUITE_P(Departures, ChurnSweep,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 0.95));

}  // namespace
}  // namespace p3q
