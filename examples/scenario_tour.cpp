// scenario_tour — runs every registered scenario at small scale.
//
// A guided tour of the scenario engine: each built-in timeline (steady
// state, massive departure, diurnal availability, flash crowd, update storm,
// churn grind, cold start, mixed stress) runs on a small synthetic
// population and prints a one-line outcome summary. Usage:
//
//   scenario_tour [users]      (default 120)
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string>

#include "scenario/registry.h"
#include "scenario/runner.h"

int main(int argc, char** argv) {
  int users = 120;
  if (argc > 1) {
    users = std::atoi(argv[1]);
    if (users < 1) {
      std::cerr << "usage: scenario_tour [users>=1]\n";
      return 1;
    }
  }

  using namespace p3q;
  ScenarioRunnerOptions options;
  options.users = users;
  options.seed = 42;
  options.cycle_scale = 0.3;  // compressed timelines: the tour stays quick

  std::cout << "P3Q scenario tour — " << users
            << " users per scenario, cycle scale " << options.cycle_scale
            << "\n\n";
  for (const std::string& name : RegisteredScenarioNames()) {
    const ScenarioReport report = RunScenario(MakeScenario(name), options);
    const PhaseReport& last = report.phases.back();
    std::cout << std::left << std::setw(18) << name << " "
              << report.totals.cycles << " cycles, " << std::setw(3)
              << report.totals.queries_issued << " queries, recall "
              << std::fixed << std::setprecision(3) << last.avg_recall
              << ", success " << last.success_ratio << ", "
              << report.totals.departures << " dep / " << report.totals.rejoins
              << " rejoins, " << std::setprecision(2)
              << report.totals.traffic.TotalBytes() / 1024.0 / 1024.0
              << " MiB, " << std::setprecision(0)
              << report.totals.timing.cycles_per_sec << " cyc/s\n";
  }
  std::cout << "\nRun `p3q_sim --scenario=NAME --json=out.json` for the full "
               "per-phase report.\n";
  return 0;
}
