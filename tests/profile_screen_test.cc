// The profile exchange's digest screen against the two-pass screen it
// replaced. LazyProtocol::PlanProfileExchange hands every candidate that
// passes the known-version screen to one batched kernel call and reads
// "shares an item" off its common_items count; the reference below keeps
// the old shape: an exact SharesItemWith test per candidate, the kernel
// only for sharers, and the Bloom false-positive draw through
// DigestIndicatesCommonItem (which re-tests the overlap). Over random pairs
// of a 400-user system with small digests, both must plan the same offers,
// record the same traffic and leave the rng in the same state.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/ideal_network.h"
#include "common/random.h"
#include "core/lazy_protocol.h"
#include "core/p3q_system.h"
#include "sim/checkpoint.h"
#include "test_util.h"

namespace p3q {
namespace {

/// How often the reference screen hit each case; each must occur.
struct ScreenCases {
  int known_version_skips = 0;
  int sharing = 0;
  int false_positive_passed = 0;
  int false_positive_failed = 0;
};

std::vector<DigestInfo> ReferenceProposals(const P3QNode& node, int fanout,
                                           Rng* rng) {
  std::vector<const ProfilePtr*> stored = node.network().StoredProfiles();
  std::vector<DigestInfo> proposals;
  if (static_cast<int>(stored.size()) > fanout) {
    stored =
        rng->SampleWithoutReplacement(stored, static_cast<std::size_t>(fanout));
  }
  for (const ProfilePtr* p : stored) {
    proposals.push_back(DigestInfo{(*p)->owner(), *p});
  }
  proposals.push_back(node.SelfDigest());
  return proposals;
}

/// The two-pass screen as it was before the one-pass rewrite.
void ReferenceScreen(const P3QSystem& system, const P3QNode& receiver,
                     const std::vector<DigestInfo>& proposals, Rng* rng,
                     Metrics* traffic,
                     std::vector<ProfileExchangeOffer>* offers,
                     ScreenCases* cases) {
  const Profile& mine = *receiver.profile();
  enum : signed char { kSkip = 0, kShares = 1, kNoShare = 2 };
  std::vector<signed char> state(proposals.size(), kSkip);
  std::vector<std::size_t> batch_slot(proposals.size(), 0);
  std::vector<const Profile*> batch;
  for (std::size_t i = 0; i < proposals.size(); ++i) {
    const DigestInfo& d = proposals[i];
    if (d.user == receiver.id()) continue;
    const std::uint32_t known = receiver.network().KnownVersion(d.user);
    if (known != PersonalNetwork::kNoVersion && d.version() <= known) {
      ++cases->known_version_skips;
      continue;
    }
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

  for (std::size_t i = 0; i < proposals.size(); ++i) {
    if (state[i] == kSkip) continue;
    const DigestInfo& d = proposals[i];
    PairSimilarity sim;
    if (state[i] == kShares) {
      sim = sims[batch_slot[i]];
      ++cases->sharing;
    } else if (!DigestIndicatesCommonItem(mine, d, rng)) {
      ++cases->false_positive_failed;
      continue;
    } else {
      ++cases->false_positive_passed;
    }
    const double fpp = d.snapshot->DigestFpp();
    const int spurious = rng->NextBinomial(
        static_cast<int>(mine.NumItems()) - static_cast<int>(sim.common_items),
        fpp);
    const std::uint64_t apparent_common = sim.common_items + spurious;
    traffic->Record(MessageType::kLazyCommonItems,
                    apparent_common * 16 +
                        static_cast<std::uint64_t>(sim.b_actions_on_common) *
                            kBytesPerTaggingAction);
    if (sim.score == 0) continue;
    ProfileExchangeOffer offer;
    offer.score = SimilarityScore(system.config().similarity, sim.score,
                                  mine.Length(), d.snapshot->Length());
    offer.digest = d;
    offer.rest_bytes = static_cast<std::uint64_t>(d.snapshot->Length() -
                                                  sim.b_actions_on_common) *
                       kBytesPerTaggingAction;
    offers->push_back(offer);
  }
}

ProfileExchangePlan ReferencePlan(const P3QSystem& system, UserId a, UserId b,
                                  Rng* rng, Metrics* traffic,
                                  ScreenCases* cases) {
  const int fanout = system.config().gossip_profile_fanout;
  ProfileExchangePlan plan;
  plan.a = a;
  plan.b = b;
  const std::vector<DigestInfo> from_a =
      ReferenceProposals(system.node(a), fanout, rng);
  const std::vector<DigestInfo> from_b =
      ReferenceProposals(system.node(b), fanout, rng);
  for (const std::vector<DigestInfo>* proposals : {&from_a, &from_b}) {
    std::size_t bytes = 0;
    for (const DigestInfo& d : *proposals) bytes += d.WireBytes();
    traffic->Record(MessageType::kLazyDigestProposal, bytes);
  }
  ReferenceScreen(system, system.node(b), from_a, rng, traffic,
                  &plan.offers_to_b, cases);
  ReferenceScreen(system, system.node(a), from_b, rng, traffic,
                  &plan.offers_to_a, cases);
  return plan;
}

::testing::AssertionResult SameOffers(
    const std::vector<ProfileExchangeOffer>& got,
    const std::vector<ProfileExchangeOffer>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " offers vs " << want.size() << " in the reference";
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].score != want[i].score ||
        got[i].digest.user != want[i].digest.user ||
        got[i].digest.snapshot != want[i].digest.snapshot ||
        got[i].rest_bytes != want[i].rest_bytes) {
      return ::testing::AssertionFailure()
             << "offer " << i << ": user " << got[i].digest.user << " score "
             << got[i].score << " vs reference user " << want[i].digest.user
             << " score " << want[i].score;
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<std::uint8_t> RngState(const Rng& rng) {
  CheckpointWriter out;
  WriteRngState(&out, rng);
  return out.buffer();
}

TEST(ProfileScreenTest, OnePassScreenMatchesTwoPassReference) {
  constexpr int kUsers = 400;
  const SyntheticTrace trace = test::SmallTrace(kUsers, /*seed=*/11);
  P3QConfig config = test::SmallConfig(/*network_size=*/20,
                                       /*stored_profiles=*/8);
  // Small digests: high false-positive rates, so the Bloom draw both
  // passes and fails.
  config.digest_bits = 128;
  P3QSystem system(trace.dataset(), config, {}, /*seed=*/12);
  system.BootstrapRandomViews();
  system.SeedNetworks(ComputeIdealNetworks(trace.dataset(), 20));
  // A few lazy cycles leave networks part ideal, part gossiped.
  system.RunLazyCycles(3);

  ScreenCases cases;
  Rng pick(13);
  for (int pair = 0; pair < 600; ++pair) {
    const UserId a = static_cast<UserId>(pick.NextUint64(kUsers));
    const UserId b = static_cast<UserId>(pick.NextUint64(kUsers));
    if (a == b) continue;
    SCOPED_TRACE("pair " + std::to_string(a) + " <-> " + std::to_string(b));
    Rng rng(1000 + pair);
    Rng reference_rng(1000 + pair);
    Metrics traffic;
    Metrics reference_traffic;
    const ProfileExchangePlan plan =
        LazyProtocol::PlanProfileExchange(&system, a, b, &rng, &traffic);
    const ProfileExchangePlan want = ReferencePlan(
        system, a, b, &reference_rng, &reference_traffic, &cases);
    ASSERT_EQ(plan.a, want.a);
    ASSERT_EQ(plan.b, want.b);
    ASSERT_TRUE(SameOffers(plan.offers_to_b, want.offers_to_b));
    ASSERT_TRUE(SameOffers(plan.offers_to_a, want.offers_to_a));
    ASSERT_EQ(test::TrafficRows(traffic), test::TrafficRows(reference_traffic));
    ASSERT_EQ(RngState(rng), RngState(reference_rng));
  }
  EXPECT_GT(cases.known_version_skips, 0);
  EXPECT_GT(cases.sharing, 0);
  EXPECT_GT(cases.false_positive_passed, 0);
  EXPECT_GT(cases.false_positive_failed, 0);
}

}  // namespace
}  // namespace p3q
