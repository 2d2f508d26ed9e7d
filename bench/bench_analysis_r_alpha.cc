// Theorems 2.1-2.4 — the analytical model vs the simulated protocol: R(α)
// (cycles to the exact result), the optimality of α = 0.5, and the 2^R
// bounds on involved users and messages.
#include <iostream>

#include "bench_common.h"
#include "core/analysis.h"
#include "eval/experiment.h"

using namespace p3q;
using bench::Banner;
using bench::Emit;
using bench::PaperNote;

int main() {
  const BenchScale scale = ResolveBenchScale(800);
  Banner("Analysis (Thm 2.1-2.4)", "R(alpha): closed form vs simulation",
         scale);
  const ExperimentEnv env(scale.users, scale.network_size, 12);
  const int c = std::max(1, scale.network_size / 20);
  const int num_queries =
      static_cast<int>(GetEnvInt("P3Q_BENCH_QUERIES", 60));

  TablePrinter table({"alpha", "R analytic", "R discrete", "R measured (avg)",
                      "avg users reached", "2^R bound"});
  for (double alpha : {0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
    P3QConfig config;
    config.stored_profiles = c;
    config.alpha = alpha;
    auto system = env.MakeSeededSystem(config, {});
    const std::vector<QueryRunStats> stats = RunQueryBatch(
        system.get(), env.SampleQueries(static_cast<std::size_t>(num_queries)),
        /*cycles=*/200);
    double cycles_sum = 0, reached_sum = 0, found_sum = 0;
    std::size_t completed = 0;
    for (const QueryRunStats& s : stats) {
      if (!s.complete) continue;
      ++completed;
      cycles_sum += s.cycles_to_complete;
      reached_sum += static_cast<double>(s.users_reached);
      // X of the model: profiles found per gossip ~ expected-profiles /
      // partial result messages.
      found_sum +=
          s.traffic.partial_result_messages > 0
              ? static_cast<double>(scale.network_size - c) /
                    static_cast<double>(s.traffic.partial_result_messages)
              : 0.0;
    }
    const double measured = completed ? cycles_sum / completed : -1;
    const double x = completed ? std::max(1.0, found_sum / completed) : 1.0;
    const double L = static_cast<double>(scale.network_size - c);
    const double analytic = QueryCompletionCycles(alpha, L, x);
    table.AddRow({TablePrinter::Fmt(alpha, 1),
                  TablePrinter::Fmt(analytic, 2),
                  TablePrinter::Fmt(SimulateCompletionCycles(alpha, L, x)),
                  TablePrinter::Fmt(measured, 2),
                  TablePrinter::Fmt(completed ? reached_sum / completed : 0, 1),
                  TablePrinter::Fmt(MaxUsersInvolved(analytic), 1)});
    std::cerr << "  [analysis] alpha=" << alpha << " done\n";
  }
  Emit(table, scale);
  PaperNote(
      "R is minimized at alpha=0.5 and grows toward both extremes, reaching "
      "L/X at alpha in {0,1}; measured completion cycles follow the same "
      "U-shape, and users reached stay below the 2^R bound of Theorem 2.3.");
  return 0;
}
