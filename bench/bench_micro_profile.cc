// Micro benchmarks: the similarity and query-scoring kernels that dominate
// lazy-mode gossip and eager-mode partial-result computation.
//
// BM_ScoreQuery draws tags from a 12-tag universe, so a third of all
// actions match; the Delicious cases score the end-to-end benchmark's kind
// of traffic instead: DeliciousLike(1500) profiles against queries drawn
// the paper's way, where most profiles score nothing.
#include <algorithm>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "dataset/generator.h"
#include "dataset/query_gen.h"
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
  const p3q::QueryTags query(tags);
  std::vector<p3q::ItemScore> hits;
  for (auto _ : state) {
    hits.clear();
    p.ScoreQuery(query, &hits);
    benchmark::DoNotOptimize(hits.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.Length()));
}
BENCHMARK(BM_ScoreQuery)->Arg(64)->Arg(249)->Arg(2000);

/// A DeliciousLike(1500) population, one query per sampled querier, and
/// each querier's ten most similar profiles (what she stores).
struct DeliciousQueries {
  std::vector<p3q::Profile> profiles;
  std::vector<p3q::QuerySpec> queries;
  std::vector<std::vector<const p3q::Profile*>> stored;

  static const DeliciousQueries& Get() {
    static const DeliciousQueries instance = Build();
    return instance;
  }

 private:
  static DeliciousQueries Build() {
    const p3q::SyntheticTrace trace = p3q::GenerateSyntheticTrace(
        p3q::SyntheticConfig::DeliciousLike(1500), 21);
    DeliciousQueries d;
    const p3q::Dataset& dataset = trace.dataset();
    d.profiles.reserve(dataset.NumUsers());
    for (p3q::UserId u = 0; u < dataset.NumUsers(); ++u) {
      d.profiles.emplace_back(u, dataset.ActionsOf(u), 0);
    }
    p3q::Rng rng(22);
    for (p3q::UserId q = 0; q < dataset.NumUsers() && d.queries.size() < 64;
         q += 23) {
      p3q::QuerySpec spec = p3q::GenerateQueryForUser(dataset, q, &rng);
      if (spec.tags.empty()) continue;
      std::vector<std::pair<std::uint64_t, p3q::UserId>> scored;
      for (p3q::UserId u = 0; u < d.profiles.size(); ++u) {
        if (u == q) continue;
        scored.emplace_back(
            p3q::KernelPairSimilarity(d.profiles[q], d.profiles[u]).score, u);
      }
      std::partial_sort(scored.begin(), scored.begin() + 10, scored.end(),
                        [](const auto& a, const auto& b) {
                          if (a.first != b.first) return a.first > b.first;
                          return a.second < b.second;
                        });
      std::vector<const p3q::Profile*> stored;
      for (int i = 0; i < 10; ++i) {
        stored.push_back(&d.profiles[scored[i].second]);
      }
      d.queries.push_back(std::move(spec));
      d.stored.push_back(std::move(stored));
    }
    return d;
  }
};

void BM_ScoreQueryDeliciousRandom(benchmark::State& state) {
  // One random profile per query: the remote scoring a gossip destination
  // does, where most profiles hold none of the query's tags.
  const DeliciousQueries& d = DeliciousQueries::Get();
  p3q::Rng rng(23);
  std::vector<p3q::ItemScore> hits;
  std::size_t q = 0;
  std::int64_t actions = 0;
  for (auto _ : state) {
    const p3q::Profile& p = d.profiles[rng.NextUint64(d.profiles.size())];
    hits.clear();
    p.ScoreQuery(p3q::QueryTags(d.queries[q].tags), &hits);
    benchmark::DoNotOptimize(hits.data());
    benchmark::ClobberMemory();
    actions += static_cast<std::int64_t>(p.Length());
    q = (q + 1) % d.queries.size();
  }
  state.SetItemsProcessed(actions);
}
BENCHMARK(BM_ScoreQueryDeliciousRandom);

void BM_RankQueryScoresDeliciousStored(benchmark::State& state) {
  // A querier's ten stored profiles through the one merge: her local
  // partial result at issue time.
  const DeliciousQueries& d = DeliciousQueries::Get();
  std::vector<p3q::ItemScore> hits;
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p3q::RankQueryScores(
        d.stored[q], p3q::QueryTags(d.queries[q].tags), &hits));
    q = (q + 1) % d.queries.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RankQueryScoresDeliciousStored);

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
