// Figure 6 — "Bandwidth for query processing": per-query bytes split into
// partial result lists, returned remaining lists and forwarded remaining
// lists, under the heterogeneous storage distributions (λ=1 and λ=4).
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "eval/experiment.h"

using namespace p3q;
using bench::Banner;
using bench::Emit;
using bench::PaperNote;

namespace {

void RunScenario(const ExperimentEnv& env, const BenchScale& scale,
                 double lambda, int num_queries) {
  Rng rng(static_cast<std::uint64_t>(lambda * 1000) + 17);
  const StorageDistribution dist = StorageDistribution::TruncatedPoisson(
      lambda, scale.network_size / 1000.0);
  P3QConfig config;
  auto system = env.MakeSeededSystem(
      config, dist.AssignAll(static_cast<std::size_t>(scale.users), &rng));
  const std::vector<QuerySpec> queries =
      env.SampleQueries(static_cast<std::size_t>(num_queries));
  const std::vector<QueryRunStats> stats =
      RunQueryBatch(system.get(), queries, 25);

  // Rank queries by partial-result bytes (the paper's dominant component).
  std::vector<QueryRunStats> ranked = stats;
  std::sort(ranked.begin(), ranked.end(),
            [](const QueryRunStats& a, const QueryRunStats& b) {
              return a.traffic.partial_result_bytes <
                     b.traffic.partial_result_bytes;
            });
  TablePrinter table({"query pctile", "partial results KB",
                      "returned lists KB", "forwarded lists KB"});
  for (int pct : {0, 25, 50, 75, 90, 100}) {
    const std::size_t idx = std::min(
        ranked.size() - 1,
        static_cast<std::size_t>(pct / 100.0 * (ranked.size() - 1) + 0.5));
    const QueryRunStats& s = ranked[idx];
    table.AddRow({TablePrinter::Fmt(pct) + "%",
                  TablePrinter::Fmt(s.traffic.partial_result_bytes / 1024.0, 2),
                  TablePrinter::Fmt(s.traffic.returned_list_bytes / 1024.0, 2),
                  TablePrinter::Fmt(s.traffic.forwarded_list_bytes / 1024.0,
                                    2)});
  }
  double total = 0, messages = 0;
  for (const QueryRunStats& s : stats) {
    total += static_cast<double>(s.traffic.TotalBytes());
    messages += static_cast<double>(s.traffic.partial_result_messages);
  }
  std::cout << "lambda=" << lambda << " (" << stats.size() << " queries)\n";
  Emit(table, scale);
  std::cout << "  avg bytes/query: " << total / stats.size() / 1024.0
            << " KB; avg partial-result messages/query: "
            << messages / stats.size() << "\n\n";
}

}  // namespace

int main() {
  const BenchScale scale = ResolveBenchScale(1000);
  Banner("Figure 6", "per-query bandwidth by message kind", scale);
  const ExperimentEnv env(scale.users, scale.network_size, 6);
  const int num_queries =
      static_cast<int>(GetEnvInt("P3Q_BENCH_QUERIES", scale.full ? 200 : 100));
  RunScenario(env, scale, 1.0, num_queries);
  RunScenario(env, scale, 4.0, num_queries);
  PaperNote(
      "partial result lists dominate the per-query traffic; lambda=4 needs "
      "less than lambda=1 (573 KB vs 360 KB per query at paper scale, 228 vs "
      "70 partial-result messages) because storage-rich destinations serve "
      "many profiles at once.");
  return 0;
}
