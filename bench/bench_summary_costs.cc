// Section 3.5 — the paper's summary cost sheet: background lazy-mode
// bandwidth per user, eager per-query bandwidth and latency (at 60 s lazy /
// 5 s eager periods), and freshness after half an hour of lazy gossip.
#include <iostream>

#include "bench_common.h"
#include "eval/experiment.h"
#include "eval/metrics_eval.h"

using namespace p3q;
using bench::Banner;
using bench::Emit;
using bench::PaperNote;

int main() {
  const BenchScale scale = ResolveBenchScale(800);
  Banner("Section 3.5 summary", "bandwidth, latency and freshness costs",
         scale);
  const ExperimentEnv env(scale.users, scale.network_size, 13);

  Rng rng(61);
  const StorageDistribution dist = StorageDistribution::TruncatedPoisson(
      1.0, scale.network_size / 1000.0);
  P3QConfig config;
  auto system = env.MakeSeededSystem(
      config, dist.AssignAll(static_cast<std::size_t>(scale.users), &rng));

  // --- lazy-mode background traffic per user ---
  const int lazy_cycles = 20;
  const Metrics before = system->metrics().Snapshot();
  system->RunLazyCycles(lazy_cycles);
  const Metrics lazy = system->metrics().Since(before);
  const double lazy_bits_per_user_cycle =
      8.0 * static_cast<double>(lazy.TotalBytes()) /
      static_cast<double>(system->network().NumOnline()) / lazy_cycles;
  const double lazy_bps = lazy_bits_per_user_cycle / kLazyPeriodSeconds;

  // --- eager per-query cost and latency ---
  const int num_queries =
      static_cast<int>(GetEnvInt("P3Q_BENCH_QUERIES", 80));
  const std::vector<QueryRunStats> stats = RunQueryBatch(
      system.get(), env.SampleQueries(static_cast<std::size_t>(num_queries)),
      30);
  double query_bytes = 0, cycles_sum = 0;
  std::size_t completed = 0;
  for (const QueryRunStats& s : stats) {
    query_bytes += static_cast<double>(s.traffic.TotalBytes());
    if (s.complete) {
      ++completed;
      cycles_sum += s.cycles_to_complete;
    }
  }
  const double avg_query_kb = query_bytes / stats.size() / 1024.0;
  const double avg_cycles = completed ? cycles_sum / completed : -1;
  const double answer_seconds = avg_cycles * kEagerPeriodSeconds;
  const double query_bps = avg_query_kb * 1024.0 * 8.0 /
                           (answer_seconds > 0 ? answer_seconds : 1);

  // --- freshness after 30 minutes of lazy gossip (30 cycles at 60 s) ---
  const UpdateBatch batch = env.trace().MakeUpdateBatch(UpdateConfig{}, &rng);
  system->ApplyUpdateBatch(batch);
  system->RunLazyCycles(30);
  const double aur_30min = AverageUpdateRate(*system, ChangedUsers(batch));

  TablePrinter table({"metric", "measured", "paper (10k users)"});
  table.AddRow({"lazy maintenance per user",
                TablePrinter::Fmt(lazy_bps / 1000.0, 1) + " Kbps",
                "13.4 Kbps"});
  table.AddRow({"query answer latency (5 s/cycle)",
                TablePrinter::Fmt(answer_seconds, 1) + " s", "~50 s"});
  table.AddRow({"querier bandwidth during query",
                TablePrinter::Fmt(query_bps / 1000.0, 1) + " Kbps", "91 Kbps"});
  table.AddRow({"avg bytes per query",
                TablePrinter::Fmt(avg_query_kb, 1) + " KB", "573 KB (l=1)"});
  table.AddRow({"AUR after 30 min lazy gossip",
                TablePrinter::Fmt(100.0 * aur_30min, 1) + "%", ">90%"});
  Emit(table, scale);
  PaperNote(
      "absolute numbers scale with the population and profile sizes; the "
      "claims to check are the orders of magnitude: background maintenance "
      "in the tens of Kbps, queries answered within ~10 eager cycles, and "
      ">90% of stale replicas refreshed within half an hour of lazy gossip.");
  return 0;
}
