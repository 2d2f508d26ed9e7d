// Shared fixture helpers for the P3Q test suites.
//
// Every protocol/system suite needs the same three ingredients: a small
// deterministic delicious-like trace, a test-scale P3QConfig, and a
// bootstrapped P3QSystem. The profile/gossip/network suites additionally
// build tiny hand-rolled profiles and digests. Keeping all of that here
// means a suite states only what it varies (users, s, c, alpha, seed) and
// inherits fixed RNG seeds for everything else, so runs are reproducible
// across suites and machines.
#ifndef P3Q_TESTS_TEST_UTIL_H_
#define P3Q_TESTS_TEST_UTIL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baseline/ideal_network.h"
#include "core/config.h"
#include "core/p3q_system.h"
#include "dataset/generator.h"
#include "dataset/query_gen.h"
#include "gossip/view.h"
#include "obs/profiler.h"
#include "profile/profile.h"
#include "sim/delivery.h"

namespace p3q::test {

/// A delicious-like synthetic trace at test scale, fully determined by
/// (users, seed).
inline SyntheticTrace SmallTrace(int users = 150, std::uint64_t seed = 5) {
  return GenerateSyntheticTrace(SyntheticConfig::DeliciousLike(users), seed);
}

/// The test-scale protocol config shared by the protocol suites: personal
/// networks of s=20 with c=5 stored profiles. random_view_size keeps the
/// P3QConfig default (10) unless a suite pins it (the lazy suite uses 8).
inline P3QConfig SmallConfig(int network_size = 20, int stored_profiles = 5,
                             double alpha = 0.5, int random_view_size = 0) {
  P3QConfig config;
  config.network_size = network_size;
  config.stored_profiles = stored_profiles;
  if (random_view_size > 0) config.random_view_size = random_view_size;
  config.alpha = alpha;
  return config;
}

/// A profile from explicit (item, tag) pairs.
inline Profile MakeProfile(UserId owner,
                           std::vector<std::pair<ItemId, TagId>> pairs,
                           std::uint32_t version = 0,
                           std::size_t digest_bits = 1024) {
  std::vector<ActionKey> actions;
  for (auto [i, t] : pairs) actions.push_back(MakeAction(i, t));
  return Profile(owner, std::move(actions), version, digest_bits);
}

inline ProfilePtr MakeProfilePtr(UserId owner,
                                 std::vector<std::pair<ItemId, TagId>> pairs,
                                 std::uint32_t version = 0,
                                 std::size_t digest_bits = 1024) {
  return std::make_shared<Profile>(
      MakeProfile(owner, std::move(pairs), version, digest_bits));
}

/// A profile snapshot tagging the given items (all with tag 1), as gossiped
/// digests carry it.
inline ProfilePtr MakeSnapshot(UserId owner, std::vector<ItemId> items,
                               std::uint32_t version = 0,
                               std::size_t digest_bits = 2048) {
  std::vector<ActionKey> actions;
  for (ItemId i : items) actions.push_back(MakeAction(i, 1));
  return std::make_shared<Profile>(owner, std::move(actions), version,
                                   digest_bits);
}

/// A snapshot of num_actions items private to `owner` (item ids offset by
/// owner*1000), so distinct owners share nothing.
inline ProfilePtr MakeDisjointSnapshot(UserId owner, std::size_t num_actions,
                                       std::uint32_t version = 0,
                                       std::size_t digest_bits = 1024) {
  std::vector<ItemId> items;
  for (std::size_t i = 0; i < num_actions; ++i)
    items.push_back(static_cast<ItemId>(owner * 1000 + i));
  return MakeSnapshot(owner, std::move(items), version, digest_bits);
}

inline DigestInfo MakeDigest(UserId owner, std::vector<ItemId> items,
                             std::uint32_t version = 0) {
  return DigestInfo{owner, MakeSnapshot(owner, std::move(items), version)};
}

inline DigestInfo MakeDisjointDigest(UserId owner, std::uint32_t version = 0,
                                     std::size_t num_actions = 4) {
  return DigestInfo{owner, MakeDisjointSnapshot(owner, num_actions, version)};
}

/// The latency spec `text` names ("uniform:0:3"); throws on a bad one.
inline LatencySpec Latency(const std::string& text) {
  LatencySpec spec;
  if (const std::string error = ParseLatencySpec(text, &spec);
      !error.empty()) {
    throw std::invalid_argument(error);
  }
  return spec;
}

/// One personal-network entry as the thread-determinism suites compare it:
/// (neighbour, score, digest version, stored version or -1, timestamp).
using NetworkRow = std::tuple<UserId, std::uint64_t, std::uint32_t,
                              std::int64_t, std::uint32_t>;

/// Every user's personal network as NetworkRows, in network order.
inline std::vector<std::vector<NetworkRow>> NetworkRows(
    const P3QSystem& system) {
  std::vector<std::vector<NetworkRow>> rows(system.NumUsers());
  for (UserId u = 0; u < static_cast<UserId>(rows.size()); ++u) {
    const PersonalNetwork& network = system.node(u).network();
    for (const NetworkEntry& e : network.entries()) {
      rows[u].emplace_back(
          e.user, e.score, e.digest_version,
          e.HasStoredProfile()
              ? std::int64_t{network.StoredProfileOf(e)->version()}
              : std::int64_t{-1},
          network.Timestamp(e));
    }
  }
  return rows;
}

/// (messages, bytes) per message type.
inline std::vector<std::pair<std::uint64_t, std::uint64_t>> TrafficRows(
    const Metrics& metrics) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rows;
  for (int t = 0; t < static_cast<int>(MessageType::kCount); ++t) {
    const MessageStats& s = metrics.Of(static_cast<MessageType>(t));
    rows.emplace_back(s.messages, s.bytes);
  }
  return rows;
}

/// Where an engine ran its commits and close-out items: its profile's
/// drain_levels, drain_pooled_messages, drain_inline_messages,
/// closeout_pooled_items and closeout_inline_items. Each is a pure function
/// of the run and the thread count.
using Schedule = std::array<std::uint64_t, 5>;

inline Schedule ScheduleOf(const PhaseBreakdown& profile) {
  return {profile.drain_levels, profile.drain_pooled_messages,
          profile.drain_inline_messages, profile.closeout_pooled_items,
          profile.closeout_inline_items};
}

/// A whole test deployment: trace + config + bootstrapped system.
///
///   TestSystem env;                          // 150 users, s=20, c=5, ideal
///   TestSystem env({.users = 80, .seed_ideal = false});
///
/// With seed_ideal (default) the personal networks start as the ideal k-NN
/// networks, so eager-mode tests exercise query processing rather than
/// convergence. With seed_ideal=false only the random views are bootstrapped
/// and the lazy protocol has to do the work.
struct TestSystem {
  struct Options {
    int users = 150;
    int network_size = 20;
    int stored_profiles = 5;
    double alpha = 0.5;
    std::uint64_t seed = 3;
    bool seed_ideal = true;
  };

  TestSystem() : TestSystem(Options{}) {}

  explicit TestSystem(Options opts)
      : trace(SmallTrace(opts.users, opts.seed)),
        config(SmallConfig(opts.network_size, opts.stored_profiles,
                           opts.alpha)) {
    system = std::make_unique<P3QSystem>(trace.dataset(), config,
                                         std::vector<int>{}, opts.seed + 1);
    system->BootstrapRandomViews();
    if (opts.seed_ideal) {
      system->SeedNetworks(
          ComputeIdealNetworks(trace.dataset(), config.network_size));
    }
  }

  /// A deterministic query for user u (seeded off u alone).
  QuerySpec QueryOf(UserId u) {
    Rng rng(u * 7919 + 1);
    return GenerateQueryForUser(trace.dataset(), u, &rng);
  }

  SyntheticTrace trace;
  P3QConfig config;
  std::unique_ptr<P3QSystem> system;
};

}  // namespace p3q::test

#endif  // P3Q_TESTS_TEST_UTIL_H_
