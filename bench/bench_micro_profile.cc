// Micro benchmarks: the similarity and query-scoring kernels that dominate
// lazy-mode gossip and eager-mode partial-result computation.
#include <benchmark/benchmark.h>

#include "common/random.h"
#include "profile/profile.h"

namespace {

p3q::Profile RandomProfile(p3q::UserId owner, int num_items, int universe,
                           std::uint64_t seed) {
  p3q::Rng rng(seed);
  std::vector<p3q::ActionKey> actions;
  for (int i = 0; i < num_items; ++i) {
    const auto item = static_cast<p3q::ItemId>(rng.NextUint64(universe));
    const int tags = 1 + static_cast<int>(rng.NextUint64(4));
    for (int t = 0; t < tags; ++t) {
      actions.push_back(
          p3q::MakeAction(item, static_cast<p3q::TagId>(rng.NextUint64(12))));
    }
  }
  return p3q::Profile(owner, std::move(actions), 0);
}

void BM_PairSimilarity(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const p3q::Profile a = RandomProfile(1, n, n * 2, 3);
  const p3q::Profile b = RandomProfile(2, n, n * 2, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p3q::ComputePairSimilarity(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.Length() + b.Length()));
}
BENCHMARK(BM_PairSimilarity)->Arg(64)->Arg(249)->Arg(2000);

void BM_ScoreQuery(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const p3q::Profile p = RandomProfile(1, n, n * 2, 5);
  const std::vector<p3q::TagId> tags{1, 3, 5, 7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.ScoreQuery(tags));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.Length()));
}
BENCHMARK(BM_ScoreQuery)->Arg(64)->Arg(249)->Arg(2000);

void BM_CommonItems(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const p3q::Profile a = RandomProfile(1, n, n * 2, 6);
  const p3q::Profile b = RandomProfile(2, n, n * 2, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.CommonItems(b));
  }
}
BENCHMARK(BM_CommonItems)->Arg(249)->Arg(2000);

}  // namespace

BENCHMARK_MAIN();
