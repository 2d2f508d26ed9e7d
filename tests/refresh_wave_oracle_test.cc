// The eager mode's wave of refreshments against its serial oracle.
//
// RefreshWave (core/eager_protocol.h) screens every participant's exchange
// on the engine's worker pool against the state the drain left, then runs
// the exchanges in ascending participant order, reusing each screen whose
// two networks are unchanged and re-planning the others serially. The
// oracle is the wave as it ran before the screens: each participant in
// ascending order plans and commits her exchange on the spot
// (RunProfileExchange below), then marks the partner gossiped with.
//
// Every case starts both from one restored checkpoint and one participant
// list (unsorted, with repeats), runs several waves, and compares every
// personal network (members, scores, digest versions, replicas,
// timestamps), the traffic counters and the wave stream's state after each
// wave, at 1, 2 and 8 threads. Each case also checks that both paths ran:
// some exchanges came from their screen, some were re-planned.
#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/eager_protocol.h"
#include "core/lazy_protocol.h"
#include "core/p3q_system.h"
#include "sim/checkpoint.h"
#include "sim/engine.h"
#include "test_util.h"

namespace p3q {
namespace {

/// The seed of the engine that runs the waves; wave w draws from
/// Engine::ForkStream(kWaveSeed, w, 0, Engine::kCycleSalt).
constexpr std::uint64_t kWaveSeed = 0x77a7e;
constexpr std::uint64_t kWaves = 3;

/// The top-layer exchange a <-> b as the wave ran it before the screens:
/// planned and committed on the spot, all randomness from `rng`.
void RunProfileExchange(P3QSystem* system, UserId a, UserId b, Rng* rng) {
  Metrics* traffic = &system->network().metrics();
  ProfileExchangePlan plan;
  LazyProtocol::PlanProfileExchange(system, a, b, rng, traffic, &plan);
  LazyProtocol::CommitProfileExchange(system, plan, traffic);
}

/// The serial wave: the participants in ascending order, each exchanging
/// with her oldest neighbour when both are online.
void OracleWave(P3QSystem* system, std::vector<UserId> participants,
                Rng* rng) {
  std::sort(participants.begin(), participants.end());
  participants.erase(std::unique(participants.begin(), participants.end()),
                     participants.end());
  for (const UserId u : participants) {
    if (!system->network().IsOnline(u)) continue;
    P3QNode& node = system->node(u);
    const UserId partner = node.network().OldestNeighbour();
    if (partner == kInvalidUser || !system->network().IsOnline(partner)) {
      continue;
    }
    RunProfileExchange(system, u, partner, rng);
    node.network().TouchGossiped(partner);
    system->node(partner).network().ResetTimestamp(u);
  }
}

/// Runs one RefreshWave per engine cycle: the participants join after the
/// (empty) drain, the engine screens them as end-of-cycle plan items, and
/// EndCycle runs the wave off the cycle's stream.
class WaveDriver : public CycleProtocol {
 public:
  WaveDriver(P3QSystem* system, std::vector<UserId> participants)
      : wave(system), participants_(std::move(participants)) {}

  void PlanCycle(UserId /*node*/, const PlanContext& /*ctx*/) override {}
  std::size_t PrepareEndCycle(std::uint64_t /*cycle*/) override {
    for (const UserId u : participants_) wave.Add(u);
    return wave.Prepare();
  }
  void PlanEndCycle(std::size_t item, std::size_t worker) override {
    wave.Screen(item, worker);
  }
  void EndCycle(std::uint64_t /*cycle*/, Rng* rng) override {
    wave.Run(rng);
    rng_after = rng->State();
  }

  RefreshWave wave;
  std::array<std::uint64_t, 4> rng_after{};

 private:
  std::vector<UserId> participants_;
};

/// What a run of waves leaves behind.
struct WaveOutcome {
  std::vector<std::vector<test::NetworkRow>> networks;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> traffic;
  /// The wave stream's state after each wave.
  std::vector<std::array<std::uint64_t, 4>> streams;
  /// Per wave: the networks' sums of (digest version + 1), a cheap witness
  /// that the waves between the first and the last agree too.
  std::vector<std::uint64_t> versions;
};

/// One restored state, one participant list, and what happens between
/// waves.
struct WaveCase {
  SyntheticTrace trace;
  P3QConfig config;
  std::vector<int> storage;  ///< per-user c; empty: config.stored_profiles
  std::uint64_t system_seed = 0;
  std::vector<std::uint8_t> checkpoint;
  std::vector<UserId> participants;
  /// Update batches applied before waves 1.. (index w-1), if any.
  std::vector<UpdateBatch> updates;

  std::unique_ptr<P3QSystem> Restore() const {
    auto system = std::make_unique<P3QSystem>(trace.dataset(), config,
                                              storage, system_seed);
    CheckpointReader in(checkpoint.data(), checkpoint.size());
    system->LoadCheckpoint(&in);
    in.ExpectEnd();
    return system;
  }

  /// Participants that will run (or re-plan) an exchange in every wave.
  std::uint64_t OnlineParticipants() const {
    const std::unique_ptr<P3QSystem> system = Restore();
    std::vector<UserId> unique = participants;
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
    return static_cast<std::uint64_t>(
        std::count_if(unique.begin(), unique.end(), [&](UserId u) {
          return system->network().IsOnline(u);
        }));
  }
};

std::uint64_t VersionSum(const P3QSystem& system) {
  std::uint64_t sum = 0;
  for (UserId u = 0; u < static_cast<UserId>(system.NumUsers()); ++u) {
    for (const NetworkEntry& e : system.node(u).network().entries()) {
      sum += e.digest_version + 1;
    }
  }
  return sum;
}

WaveOutcome Finish(const P3QSystem& system, WaveOutcome outcome) {
  outcome.networks = test::NetworkRows(system);
  outcome.traffic = test::TrafficRows(system.network().metrics());
  return outcome;
}

WaveOutcome RunOracle(const WaveCase& c) {
  const std::unique_ptr<P3QSystem> system = c.Restore();
  WaveOutcome outcome;
  for (std::uint64_t w = 0; w < kWaves; ++w) {
    if (w > 0 && w - 1 < c.updates.size()) {
      system->ApplyUpdateBatch(c.updates[w - 1]);
    }
    Rng rng = Engine::ForkStream(kWaveSeed, w, 0, Engine::kCycleSalt);
    OracleWave(system.get(), c.participants, &rng);
    outcome.streams.push_back(rng.State());
    outcome.versions.push_back(VersionSum(*system));
  }
  return Finish(*system, std::move(outcome));
}

WaveOutcome RunWave(const WaveCase& c, int threads,
                    std::uint64_t* replans) {
  const std::unique_ptr<P3QSystem> system = c.Restore();
  WaveDriver driver(system.get(), c.participants);
  Engine engine(system->NumUsers(), kWaveSeed, &driver);
  engine.SetThreads(threads);
  WaveOutcome outcome;
  for (std::uint64_t w = 0; w < kWaves; ++w) {
    if (w > 0 && w - 1 < c.updates.size()) {
      system->ApplyUpdateBatch(c.updates[w - 1]);
    }
    engine.RunCycles(1);
    outcome.streams.push_back(driver.rng_after);
    outcome.versions.push_back(VersionSum(*system));
  }
  *replans = driver.wave.replans();
  return Finish(*system, std::move(outcome));
}

/// Runs the oracle and the wave at 1, 2 and 8 threads; returns the wave's
/// re-plans, which must be the same at every thread count.
std::uint64_t ExpectWaveMatchesOracle(const WaveCase& c) {
  const WaveOutcome oracle = RunOracle(c);
  std::uint64_t base_replans = 0;
  bool first = true;
  for (const int threads : {1, 2, 8}) {
    std::uint64_t replans = 0;
    const WaveOutcome wave = RunWave(c, threads, &replans);
    EXPECT_EQ(wave.streams, oracle.streams) << threads << " threads";
    EXPECT_EQ(wave.versions, oracle.versions) << threads << " threads";
    EXPECT_EQ(wave.traffic, oracle.traffic) << threads << " threads";
    EXPECT_TRUE(wave.networks == oracle.networks)
        << threads << " threads: the personal networks differ";
    if (first) {
      base_replans = replans;
      first = false;
    }
    EXPECT_EQ(replans, base_replans) << threads << " threads";
  }
  return base_replans;
}

/// Checks that some exchanges came from their screens and some were
/// re-planned.
void ExpectBothPaths(const WaveCase& c, std::uint64_t replans) {
  EXPECT_GT(replans, 0u) << "no exchange was re-planned";
  EXPECT_LT(replans, kWaves * c.OnlineParticipants())
      << "no screen was reused";
}

/// About 60% of the users, unsorted and with repeats.
std::vector<UserId> SomeParticipants(std::size_t users, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<UserId> participants;
  for (UserId u = 0; u < static_cast<UserId>(users); ++u) {
    if (rng.NextBool(0.6)) participants.push_back(u);
    if (rng.NextBool(0.1)) participants.push_back(u);
  }
  rng.Shuffle(&participants);
  return participants;
}

/// Builds a case from a freshly constructed system that `prepare` drives to
/// the state to checkpoint.
WaveCase MakeCase(int users, std::uint64_t trace_seed, P3QConfig config,
                  std::vector<int> storage, bool seed_ideal,
                  const std::function<void(P3QSystem*, WaveCase*)>& prepare) {
  WaveCase c{test::SmallTrace(users, trace_seed),
             std::move(config),
             std::move(storage),
             /*system_seed=*/trace_seed * 31 + 7,
             /*checkpoint=*/{},
             /*participants=*/{},
             /*updates=*/{}};
  P3QSystem system(c.trace.dataset(), c.config, c.storage, c.system_seed);
  system.BootstrapRandomViews();
  if (seed_ideal) {
    system.SeedNetworks(
        ComputeIdealNetworks(c.trace.dataset(), c.config.network_size));
  }
  prepare(&system, &c);
  CheckpointWriter out;
  system.SaveCheckpoint(&out);
  c.checkpoint = out.buffer();
  c.participants = SomeParticipants(system.NumUsers(), trace_seed + 1);
  return c;
}

TEST(RefreshWaveOracleTest, SettledSeededNetworksReuseTheirScreens) {
  // Ideal networks after a few lazy cycles: the exchanges mostly change
  // nothing, so nearly every screen is reused, and the partners' timestamps
  // (spread by the lazy cycles) decide the rest.
  const WaveCase c = MakeCase(
      300, 41, test::SmallConfig(), {}, /*seed_ideal=*/true,
      [](P3QSystem* system, WaveCase*) { system->RunLazyCycles(3); });
  const std::uint64_t replans = ExpectWaveMatchesOracle(c);
  ExpectBothPaths(c, replans);
  EXPECT_LT(replans * 4, kWaves * c.OnlineParticipants())
      << "settled networks should reuse most screens";
}

TEST(RefreshWaveOracleTest, ProfileUpdatesBetweenWavesBumpRevisions) {
  // Converging networks, and an update batch before each wave: new digest
  // versions travel through the exchanges, so networks change and their
  // revisions move.
  const WaveCase c = MakeCase(
      240, 43, test::SmallConfig(), {}, /*seed_ideal=*/false,
      [](P3QSystem* system, WaveCase* c) {
        system->RunLazyCycles(6);
        UpdateConfig heavy;
        heavy.changed_user_fraction = 0.3;
        Rng rng(4301);
        system->ApplyUpdateBatch(c->trace.MakeUpdateBatch(heavy, &rng));
        for (std::uint64_t w = 1; w < kWaves; ++w) {
          c->updates.push_back(c->trace.MakeUpdateBatch(heavy, &rng));
        }
      });
  ExpectBothPaths(c, ExpectWaveMatchesOracle(c));
}

TEST(RefreshWaveOracleTest, ChurnTakesParticipantsAndPartnersOffline) {
  const WaveCase c = MakeCase(
      240, 47, test::SmallConfig(), {}, /*seed_ideal=*/true,
      [](P3QSystem* system, WaveCase*) {
        system->RunLazyCycles(2);
        system->FailRandomFraction(0.3);
        system->RunLazyCycles(2);
      });
  ExpectBothPaths(c, ExpectWaveMatchesOracle(c));
}

TEST(RefreshWaveOracleTest, StorageAboveTheFanoutForcesTheSerialPath) {
  // Every third user stores 8 profiles against a proposal fanout of 5, so
  // her proposals are a sample drawn from the wave's stream and her
  // exchanges are re-planned; the others store 4 and are screened.
  P3QConfig config = test::SmallConfig(/*network_size=*/20,
                                       /*stored_profiles=*/4);
  config.gossip_profile_fanout = 5;
  std::vector<int> storage(240);
  for (std::size_t u = 0; u < storage.size(); ++u) {
    storage[u] = u % 3 == 0 ? 8 : 4;
  }
  const WaveCase c = MakeCase(
      240, 53, config, storage, /*seed_ideal=*/true,
      [](P3QSystem* system, WaveCase*) { system->RunLazyCycles(2); });
  const std::uint64_t replans = ExpectWaveMatchesOracle(c);
  ExpectBothPaths(c, replans);
  // At least the participants storing 8 profiles re-plan every wave.
  const std::unique_ptr<P3QSystem> system = c.Restore();
  std::vector<UserId> unique = c.participants;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  std::uint64_t sampling = 0;
  for (const UserId u : unique) {
    if (system->node(u).network().StoredProfiles().size() > 5) ++sampling;
  }
  EXPECT_GT(sampling, 0u);
  EXPECT_GE(replans, sampling);
}

TEST(RefreshWaveOracleTest, LaggedLatencyStateWithMessagesInFlight) {
  // The state of a lagged run: lazy and eager messages still on the wire,
  // networks holding the commits that did arrive.
  const WaveCase c = MakeCase(
      240, 59, test::SmallConfig(), {}, /*seed_ideal=*/false,
      [](P3QSystem* system, WaveCase* c) {
        system->SetLatency(test::Latency("fixed:2"));
        system->RunLazyCycles(8);
        for (UserId u = 0; u < 240; u += 6) {
          Rng rng(u * 7919 + 1);
          system->IssueQuery(
              GenerateQueryForUser(c->trace.dataset(), u, &rng));
        }
        system->RunEagerCycles(2);
        ASSERT_GT(system->MessagesInFlight(), 0u);
      });
  ExpectBothPaths(c, ExpectWaveMatchesOracle(c));
}

}  // namespace
}  // namespace p3q
