// Micro benchmarks: the Robin Hood UserMap at its 7/8 maximum load against
// the linear-probing map it replaced (tests/linear_user_map.h) at its 1/2
// maximum, in tables of equal slot counts: 128 slots (a personal network's
// index of up to 100 members), 512 (a probe memo of a few hundred users)
// and 16384 (past the first-level cache). Each case times Find hits, Find
// misses (what most Contains and KnownVersion calls are), the probe memo's
// ShouldProbe, and erase + insert churn that holds the table at its
// maximum load.
#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "common/user_map.h"
#include "core/probe_memo.h"
#include "linear_user_map.h"

namespace {

using p3q::UserId;
using p3q::UserMap;
using p3q::test::LinearUserMap;

/// Entries a `slots`-slot table holds at its maximum load.
template <typename Map>
std::size_t MaxEntries(std::size_t slots);
template <>
std::size_t MaxEntries<UserMap>(std::size_t slots) {
  return slots * 7 / 8;
}
template <>
std::size_t MaxEntries<LinearUserMap>(std::size_t slots) {
  return slots / 2;
}

/// The old probe memo: ShouldProbe over the linear-probing map.
class LinearMemo {
 public:
  bool ShouldProbe(UserId user, std::uint32_t version) {
    auto [probed, inserted] = versions_.Emplace(user, version);
    if (inserted) return true;
    if (version > *probed) {
      *probed = version;
      return true;
    }
    return false;
  }
  std::size_t slot_count() const { return versions_.slot_count(); }

 private:
  LinearUserMap versions_;
};

template <typename Map>
struct MemoOf;
template <>
struct MemoOf<UserMap> {
  using type = p3q::ProbeMemo;
};
template <>
struct MemoOf<LinearUserMap> {
  using type = LinearMemo;
};

/// `members` distinct ids of a million-user population, then `others`
/// more that are not members.
struct Ids {
  std::vector<UserId> members;
  std::vector<UserId> others;
};

Ids DrawIds(std::size_t members, std::size_t others, std::uint64_t seed) {
  p3q::Rng rng(seed);
  std::unordered_set<UserId> seen;
  Ids ids;
  while (ids.members.size() + ids.others.size() < members + others) {
    const UserId id = static_cast<UserId>(rng.NextUint64(1'000'000));
    if (!seen.insert(id).second) continue;
    (ids.members.size() < members ? ids.members : ids.others).push_back(id);
  }
  return ids;
}

/// A map filled to its maximum load in a `slots`-slot table.
template <typename Map>
bool Fill(Map* map, const std::vector<UserId>& members, std::size_t slots) {
  for (std::size_t i = 0; i < members.size(); ++i) {
    map->Set(members[i], static_cast<std::uint32_t>(i));
  }
  return map->slot_count() == slots;
}

template <typename Map>
void BM_FindHit(benchmark::State& state) {
  const std::size_t slots = static_cast<std::size_t>(state.range(0));
  const Ids ids = DrawIds(MaxEntries<Map>(slots), 0, 11);
  Map map;
  if (!Fill(&map, ids.members, slots)) {
    state.SkipWithError("table size off");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Find(ids.members[i]));
    if (++i == ids.members.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_FindHit, UserMap)->Arg(128)->Arg(512)->Arg(16384);
BENCHMARK_TEMPLATE(BM_FindHit, LinearUserMap)->Arg(128)->Arg(512)->Arg(16384);

template <typename Map>
void BM_FindMiss(benchmark::State& state) {
  const std::size_t slots = static_cast<std::size_t>(state.range(0));
  const Ids ids = DrawIds(MaxEntries<Map>(slots), 4096, 13);
  Map map;
  if (!Fill(&map, ids.members, slots)) {
    state.SkipWithError("table size off");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Find(ids.others[i]));
    if (++i == ids.others.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_FindMiss, UserMap)->Arg(128)->Arg(512)->Arg(16384);
BENCHMARK_TEMPLATE(BM_FindMiss, LinearUserMap)->Arg(128)->Arg(512)->Arg(16384);

template <typename Map>
void BM_ShouldProbe(benchmark::State& state) {
  // A warm memo: every offer names a user on record. A cycle of 4096
  // offers bumps one in eight to a newer digest version (an update), so its
  // first pass answers true for those; later passes repeat versions already
  // on record and answer false, as most offers to a warm memo do. Versions
  // stay far below 255.
  const std::size_t slots = static_cast<std::size_t>(state.range(0));
  const Ids ids = DrawIds(MaxEntries<Map>(slots), 0, 17);
  typename MemoOf<Map>::type memo;
  for (const UserId user : ids.members) memo.ShouldProbe(user, 0);
  if (memo.slot_count() != slots) {
    state.SkipWithError("table size off");
    return;
  }
  p3q::Rng rng(19);
  std::vector<std::uint32_t> versions(ids.members.size(), 0);
  std::vector<std::pair<UserId, std::uint32_t>> offers(4096);
  for (auto& [user, version] : offers) {
    const std::size_t member = rng.NextUint64(ids.members.size());
    if (rng.NextUint64(8) == 0) ++versions[member];
    user = ids.members[member];
    version = versions[member];
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(memo.ShouldProbe(offers[i].first,
                                              offers[i].second));
    if (++i == offers.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_ShouldProbe, UserMap)->Arg(128)->Arg(512)->Arg(16384);
BENCHMARK_TEMPLATE(BM_ShouldProbe, LinearUserMap)
    ->Arg(128)
    ->Arg(512)
    ->Arg(16384);

template <typename Map>
void BM_Churn(benchmark::State& state) {
  // Erase a member, insert a non-member: the table stays at its maximum
  // load and never grows, as a full personal network's index does.
  const std::size_t slots = static_cast<std::size_t>(state.range(0));
  Ids ids = DrawIds(MaxEntries<Map>(slots), MaxEntries<Map>(slots), 23);
  Map map;
  if (!Fill(&map, ids.members, slots)) {
    state.SkipWithError("table size off");
    return;
  }
  p3q::Rng rng(29);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps(4096);
  for (auto& [in, out] : swaps) {
    in = static_cast<std::uint32_t>(rng.NextUint64(ids.members.size()));
    out = static_cast<std::uint32_t>(rng.NextUint64(ids.others.size()));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto [in, out] = swaps[i];
    map.Erase(ids.members[in]);
    benchmark::DoNotOptimize(map.Emplace(ids.others[out], in).second);
    std::swap(ids.members[in], ids.others[out]);
    if (++i == swaps.size()) i = 0;
  }
  if (map.slot_count() != slots) state.SkipWithError("table grew");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_Churn, UserMap)->Arg(128)->Arg(512)->Arg(16384);
BENCHMARK_TEMPLATE(BM_Churn, LinearUserMap)->Arg(128)->Arg(512)->Arg(16384);

}  // namespace

BENCHMARK_MAIN();
