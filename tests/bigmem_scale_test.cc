// Big-memory scale suite (label: bigmem).
//
// Exercises the million-user memory path end to end: streaming trace
// generation into arena-backed profile storage, system construction, and a
// couple of gossip cycles, with footprint assertions on the arena rollup.
// These tests allocate gigabytes and run for minutes, so they are excluded
// from the default ctest pass two ways: CMake labels them `bigmem` and the
// tests skip themselves unless P3Q_BIGMEM=1 is set in the environment (the
// dedicated Release CI step sets it). P3Q_BIGMEM_USERS overrides the user
// count for local shakedowns.
#include <cstdlib>
#include <string>

#include "core/p3q_system.h"
#include "dataset/generator.h"
#include "profile/profile_store.h"

#include "gtest/gtest.h"

namespace p3q {
namespace {

bool BigMemEnabled() {
  const char* flag = std::getenv("P3Q_BIGMEM");
  return flag != nullptr && std::string(flag) == "1";
}

int BigMemUsers(int fallback) {
  const char* users = std::getenv("P3Q_BIGMEM_USERS");
  if (users == nullptr) return fallback;
  const int parsed = std::atoi(users);
  return parsed > 0 ? parsed : fallback;
}

TEST(BigMemScaleTest, MillionUserStreamingSetupStaysWithinArenaBudget) {
  if (!BigMemEnabled()) {
    GTEST_SKIP() << "set P3Q_BIGMEM=1 to run big-memory scale tests";
  }
  const int kUsers = BigMemUsers(1'000'000);

  P3QConfig config;
  config.network_size = 50;

  SyntheticTraceStream stream(SyntheticConfig::DeliciousLike(kUsers),
                              /*seed=*/1);
  ProfileStore store;
  while (!stream.Done()) {
    const UserId u = stream.next_user();
    store.AddUser(u, stream.NextUserActions(), config.digest_bits);
  }
  ASSERT_EQ(static_cast<int>(store.NumUsers()), kUsers);

  const ProfileStoreMemoryStats setup = store.MemoryStats();
  EXPECT_EQ(setup.arena.live_blocks, static_cast<std::uint64_t>(kUsers));
  EXPECT_GT(setup.arena.used_bytes, 0u);
  // Slab packing must stay tight: headers + bump-pointer padding plus at
  // most one partially filled slab per shard. 2x used is a generous bound
  // that still catches fragmentation or per-profile heap fallbacks.
  EXPECT_LE(setup.arena.reserved_bytes, 2 * setup.arena.used_bytes + (8u << 20));

  P3QSystem system(std::move(store), config, /*per_user_storage=*/{},
                   /*seed=*/1);
  system.BootstrapRandomViews();
  system.RunLazyCycles(2);

  const SystemMemoryStats after = system.MemoryStats();
  // Gossip churns replica snapshots through the arenas; every retired
  // snapshot must have been released (live blocks track real snapshots,
  // not garbage).
  EXPECT_GE(after.store.arena.live_blocks,
            static_cast<std::uint64_t>(kUsers));
  EXPECT_LE(after.store.arena.reserved_bytes,
            4 * after.store.arena.used_bytes + (64u << 20));
}

TEST(BigMemScaleTest, ArenaChurnUnderUpdateStormDoesNotLeak) {
  if (!BigMemEnabled()) {
    GTEST_SKIP() << "set P3Q_BIGMEM=1 to run big-memory scale tests";
  }
  const int kUsers = BigMemUsers(200'000);

  SyntheticTraceStream stream(SyntheticConfig::DeliciousLike(kUsers),
                              /*seed=*/3);
  ProfileStore store;
  while (!stream.Done()) {
    const UserId u = stream.next_user();
    store.AddUser(u, stream.NextUserActions(), kDefaultDigestBits);
  }

  // Three update waves per user: each update retires the previous snapshot
  // into the arena free lists, so the live population must stay flat.
  for (int wave = 0; wave < 3; ++wave) {
    for (UserId u = 0; u < static_cast<UserId>(kUsers); ++u) {
      store.ApplyUpdate(u, {MakeAction(static_cast<ItemId>(1000 + wave),
                                       static_cast<TagId>(wave))});
    }
  }
  const ProfileStoreMemoryStats stats = store.MemoryStats();
  EXPECT_EQ(stats.arena.live_blocks, static_cast<std::uint64_t>(kUsers));
  EXPECT_LE(stats.arena.reserved_bytes,
            4 * stats.arena.used_bytes + (64u << 20));
}

}  // namespace
}  // namespace p3q
