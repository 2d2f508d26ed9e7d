// Micro benchmarks: incremental NRA vs a full merge, at the list counts a
// querier sees per query (the paper measures ~70-228 partial result lists).
#include <algorithm>
#include <map>
#include <unordered_map>

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "core/topk.h"

namespace {

using List = std::vector<std::pair<p3q::ItemId, std::uint32_t>>;

std::vector<List> MakeLists(int num_lists, int list_len, int universe,
                            std::uint64_t seed) {
  p3q::Rng rng(seed);
  std::vector<List> lists;
  for (int l = 0; l < num_lists; ++l) {
    std::map<p3q::ItemId, std::uint32_t> unique;
    for (int i = 0; i < list_len; ++i) {
      unique[static_cast<p3q::ItemId>(rng.NextUint64(universe))] =
          static_cast<std::uint32_t>(1 + rng.NextUint64(20));
    }
    List list(unique.begin(), unique.end());
    std::sort(list.begin(), list.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    lists.push_back(std::move(list));
  }
  return lists;
}

void BM_NraIncremental(benchmark::State& state) {
  const int num_lists = static_cast<int>(state.range(0));
  const auto lists = MakeLists(num_lists, 40, 800, 11);
  for (auto _ : state) {
    p3q::IncrementalNra nra(10);
    // Lists arrive over "cycles" of 8, as in eager processing.
    for (std::size_t i = 0; i < lists.size(); ++i) {
      nra.AddList(lists[i]);
      if (i % 8 == 7) nra.Process();
    }
    nra.Process();
    benchmark::DoNotOptimize(nra.TopK());
  }
  state.SetItemsProcessed(state.iterations() * num_lists);
}
BENCHMARK(BM_NraIncremental)->Arg(16)->Arg(70)->Arg(228);

void BM_NraDrainAll(benchmark::State& state) {
  const int num_lists = static_cast<int>(state.range(0));
  const auto lists = MakeLists(num_lists, 40, 800, 13);
  for (auto _ : state) {
    p3q::IncrementalNra nra(10);
    for (const auto& list : lists) nra.AddList(list);
    nra.DrainAll();
    benchmark::DoNotOptimize(nra.TopK());
  }
  state.SetItemsProcessed(state.iterations() * num_lists);
}
BENCHMARK(BM_NraDrainAll)->Arg(16)->Arg(70)->Arg(228);

void BM_NraQuerySized(benchmark::State& state) {
  // Builds and frees one accumulator the size of a serving query at its
  // end (94 lists, about 200 candidates, ten cycles of arrivals), as
  // IssueQuery, the close-outs and ForgetQuery do over a query's life.
  const auto lists = MakeLists(94, 12, 200, 19);
  for (auto _ : state) {
    p3q::IncrementalNra nra(10);
    std::size_t next = 0;
    for (int cycle = 0; cycle < 10; ++cycle) {
      const std::size_t end = cycle == 9 ? lists.size() : next + 9;
      std::size_t entries = 0;
      for (std::size_t i = next; i < end; ++i) entries += lists[i].size();
      nra.Reserve(end - next, entries);
      for (; next < end; ++next) nra.AddList(lists[next]);
      nra.Process();
      benchmark::DoNotOptimize(nra.TopK());
    }
    nra.DrainAll();
    benchmark::DoNotOptimize(nra.TopK());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NraQuerySized);

void BM_FullMergeBaseline(benchmark::State& state) {
  // The naive alternative: hash-merge everything, sort, take k.
  const int num_lists = static_cast<int>(state.range(0));
  const auto lists = MakeLists(num_lists, 40, 800, 17);
  for (auto _ : state) {
    std::unordered_map<p3q::ItemId, std::uint64_t> totals;
    for (const auto& list : lists) {
      for (const auto& [item, score] : list) totals[item] += score;
    }
    std::vector<std::pair<p3q::ItemId, std::uint64_t>> ranked(totals.begin(),
                                                              totals.end());
    std::partial_sort(ranked.begin(),
                      ranked.begin() + std::min<std::size_t>(10, ranked.size()),
                      ranked.end(), [](const auto& a, const auto& b) {
                        return a.second > b.second;
                      });
    benchmark::DoNotOptimize(ranked);
  }
  state.SetItemsProcessed(state.iterations() * num_lists);
}
BENCHMARK(BM_FullMergeBaseline)->Arg(16)->Arg(70)->Arg(228);

}  // namespace

BENCHMARK_MAIN();
