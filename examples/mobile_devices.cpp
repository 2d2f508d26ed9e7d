// Heterogeneous devices: the paper's λ=1 population models mobile phones
// with tiny storage, λ=4 a desktop-rich crowd. P3Q lets every user trade
// storage for latency and bandwidth individually; this example puts both
// populations side by side.
#include <iostream>

#include "common/table_printer.h"
#include "dataset/storage_dist.h"
#include "eval/experiment.h"
#include "eval/metrics_eval.h"

int main() {
  const int num_users = 800;
  const int network_size = 80;
  const p3q::ExperimentEnv env(num_users, network_size, 123);

  p3q::TablePrinter table({"population", "mean c", "avg storage (actions)",
                           "avg cycles to exact answer", "avg KB per query",
                           "avg users reached"});
  for (double lambda : {1.0, 4.0}) {
    p3q::Rng rng(static_cast<std::uint64_t>(lambda));
    const p3q::StorageDistribution dist =
        p3q::StorageDistribution::TruncatedPoisson(lambda,
                                                   network_size / 1000.0);
    p3q::P3QConfig config;
    auto system = env.MakeSeededSystem(
        config, dist.AssignAll(static_cast<std::size_t>(num_users), &rng));

    double storage = 0;
    for (p3q::UserId u = 0; u < static_cast<p3q::UserId>(num_users); ++u) {
      storage += static_cast<double>(p3q::StoredProfileLength(*system, u));
    }

    const auto stats =
        p3q::RunQueryBatch(system.get(), env.SampleQueries(60), 30);
    double cycles = 0, bytes = 0, reached = 0;
    int completed = 0;
    for (const auto& s : stats) {
      bytes += static_cast<double>(s.traffic.TotalBytes());
      reached += static_cast<double>(s.users_reached);
      if (s.complete) {
        cycles += s.cycles_to_complete;
        ++completed;
      }
    }
    table.AddRow({lambda == 1.0 ? "mobile-heavy (lambda=1)"
                                : "desktop-rich (lambda=4)",
                  p3q::TablePrinter::Fmt(dist.Mean(), 1),
                  p3q::TablePrinter::Fmt(storage / num_users, 0),
                  p3q::TablePrinter::Fmt(completed ? cycles / completed : -1, 1),
                  p3q::TablePrinter::Fmt(bytes / stats.size() / 1024.0, 1),
                  p3q::TablePrinter::Fmt(reached / stats.size(), 1)});
  }
  table.Print(std::cout);
  std::cout << "\nWeak devices store little and compensate with more gossip "
               "(more users\nreached, more traffic); rich devices answer "
               "faster from local replicas.\nEach user picks her own point "
               "on this tradeoff — that is P3Q's knob c.\n";
  return 0;
}
