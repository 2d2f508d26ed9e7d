// Micro benchmark: scalar vs batched similarity scoring (the plan phase's
// hottest loop). The "Paper*" pair of benchmarks is what the CI
// perf-trajectory harness records as pairs/sec: one node's profile scored
// against a gossip-sized batch of candidates drawn from a delicious-like
// trace — exactly the shape of the batched kernel call in ScreenProposals.
// The "Skewed*" pair records what one skewed pair (12 vs 5,000 items) costs
// through the pair kernel's block merge.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "common/random.h"
#include "dataset/generator.h"
#include "profile/profile.h"
#include "profile/score_kernel.h"
#include "profile/score_kernel_simd.h"

namespace {

/// A random profile with delicious-like clustering: a handful of tags per
/// item, tag ids concentrated near zero (popular tags), items from a
/// bounded universe.
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

/// Paper-scale fixture: profiles from a delicious-like synthetic trace (the
/// same generator the simulator runs on), one base user plus a batch of
/// candidates — the shape of one batched kernel call per node per cycle.
struct PaperBatch {
  std::vector<p3q::ProfilePtr> profiles;
  const p3q::Profile* base;
  std::vector<const p3q::Profile*> candidates;

  explicit PaperBatch(int users, int batch) {
    const p3q::SyntheticTrace trace = p3q::GenerateSyntheticTrace(
        p3q::SyntheticConfig::DeliciousLike(users), /*seed=*/42);
    p3q::ProfileStore store = trace.dataset().BuildProfileStore();
    for (p3q::UserId u = 0; u < static_cast<p3q::UserId>(users); ++u) {
      profiles.push_back(store.Get(u));
    }
    base = profiles[0].get();
    for (int i = 0; i < batch; ++i) {
      candidates.push_back(profiles[1 + (i % (users - 1))].get());
    }
  }
};

const PaperBatch& SharedPaperBatch() {
  static const PaperBatch batch(/*users=*/400, /*batch=*/64);
  return batch;
}

/// Scalar baseline: the element-at-a-time reference merge per pair.
void BM_PaperScalarPairs(benchmark::State& state) {
  const PaperBatch& fixture = SharedPaperBatch();
  for (auto _ : state) {
    for (const p3q::Profile* candidate : fixture.candidates) {
      benchmark::DoNotOptimize(
          p3q::ComputePairSimilarity(*fixture.base, *candidate));
    }
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(fixture.candidates.size()));
}
BENCHMARK(BM_PaperScalarPairs);

/// The batched block-bitmap kernel over the same pairs.
void BM_PaperBatchedPairs(benchmark::State& state) {
  const PaperBatch& fixture = SharedPaperBatch();
  std::vector<p3q::PairSimilarity> out(fixture.candidates.size());
  for (auto _ : state) {
    p3q::KernelPairSimilarityBatch(*fixture.base, fixture.candidates.data(),
                                   fixture.candidates.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(fixture.candidates.size()));
}
BENCHMARK(BM_PaperBatchedPairs);

/// Skewed pairs (tiny vs huge profile): the block merge walks both sides.
void BM_SkewedScalar(benchmark::State& state) {
  const p3q::Profile small = RandomProfile(1, 12, 100000, 3);
  const p3q::Profile large = RandomProfile(2, 5000, 100000, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p3q::ComputePairSimilarity(small, large));
  }
}
BENCHMARK(BM_SkewedScalar);

void BM_SkewedKernel(benchmark::State& state) {
  const p3q::Profile small = RandomProfile(1, 12, 100000, 3);
  const p3q::Profile large = RandomProfile(2, 5000, 100000, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p3q::KernelPairSimilarity(small, large));
  }
}
BENCHMARK(BM_SkewedKernel);

/// One BM_PaperBatchedPairs leg pinned to a specific SIMD lane; registered
/// per usable lane from main() so the trajectory harness can record each
/// lane's pairs/sec side by side.
void PaperBatchedPairsLane(benchmark::State& state, p3q::SimdLane lane) {
  const PaperBatch& fixture = SharedPaperBatch();
  std::vector<p3q::PairSimilarity> out(fixture.candidates.size());
  const p3q::SimdLane previous = p3q::SetSimdLane(lane);
  for (auto _ : state) {
    p3q::KernelPairSimilarityBatch(*fixture.base, fixture.candidates.data(),
                                   fixture.candidates.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  p3q::SetSimdLane(previous);
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(fixture.candidates.size()));
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): prints the detected CPU features
// and the active kernel lane (stderr + benchmark context, so both humans
// and the JSON reader can attribute recorded numbers to hardware), then
// registers one BM_PaperBatchedPairs leg per usable SIMD lane.
int main(int argc, char** argv) {
  const p3q::CpuFeatures& features = p3q::HostCpuFeatures();
  const std::string features_text = p3q::CpuFeaturesToString(features);
  const char* active = p3q::SimdLaneName(p3q::ActiveSimdLane());
  std::fprintf(stderr, "p3q: cpu features: %s\n", features_text.c_str());
  std::fprintf(stderr, "p3q: active simd lane: %s\n", active);
  benchmark::AddCustomContext("p3q_cpu_features", features_text);
  benchmark::AddCustomContext("p3q_simd_lane", active);
  for (const p3q::SimdLane lane : p3q::UsableSimdLanes()) {
    const std::string name =
        std::string("BM_PaperBatchedPairs/") + p3q::SimdLaneName(lane);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [lane](benchmark::State& state) { PaperBatchedPairsLane(state, lane); });
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
