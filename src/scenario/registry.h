// Named built-in scenarios.
//
// Each registered scenario is a declarative timeline (scenario.h) capturing
// one workload shape the system must handle: the paper's own situations
// (steady state, one massive departure, one update batch) plus richer
// dynamics — diurnal availability, flash crowds, sustained churn, querying
// during cold start, a combined stress timeline, and delivery-latency
// variants (lagged-steady, lossy-flash-crowd) that run a base timeline
// under a non-zero latency model, and the convergence measurement the CI
// gate reads (a lazy phase that stops on a success-ratio target).
// Scenarios are built on
// demand so callers can scale them via the runner options; the registry is
// the single source the p3q_sim CLI, the scenario_tour example and the
// scenario smoke tests all enumerate, so a new scenario is automatically
// runnable and tested everywhere.
#ifndef P3Q_SCENARIO_REGISTRY_H_
#define P3Q_SCENARIO_REGISTRY_H_

#include <string>
#include <vector>

#include "scenario/scenario.h"

namespace p3q {

/// Names of every built-in scenario, in registry order.
std::vector<std::string> RegisteredScenarioNames();

/// True when `name` is a registered scenario.
bool HasScenario(const std::string& name);

/// Builds the named scenario; throws std::invalid_argument for unknown
/// names. Every returned scenario passes Scenario::Validate().
Scenario MakeScenario(const std::string& name);

/// One-line description of the named scenario (empty for unknown names).
std::string ScenarioDescription(const std::string& name);

}  // namespace p3q

#endif  // P3Q_SCENARIO_REGISTRY_H_
