#include "scenario/scenario.h"

#include <cmath>

namespace p3q {

const char* PhaseModeName(PhaseMode mode) {
  switch (mode) {
    case PhaseMode::kLazy:
      return "lazy";
    case PhaseMode::kEager:
      return "eager";
    case PhaseMode::kMixed:
      return "mixed";
  }
  return "unknown";
}

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kDeparture:
      return "departure";
    case EventKind::kRejoin:
      return "rejoin";
    case EventKind::kQueryBurst:
      return "query_burst";
    case EventKind::kUpdateStorm:
      return "update_storm";
  }
  return "unknown";
}

DutyCycleFn ConstantDuty(double fraction) {
  return [fraction](std::uint64_t, std::uint64_t) { return fraction; };
}

DutyCycleFn DiurnalDuty(double high, double low) {
  return [high, low](std::uint64_t cycle, std::uint64_t phase_cycles) {
    if (phase_cycles <= 1) return high;
    // cos runs 1 -> -1 -> 1 over the phase; map to high -> low -> high.
    const double x = static_cast<double>(cycle) /
                     static_cast<double>(phase_cycles - 1);  // [0, 1]
    const double wave = std::cos(2.0 * 3.14159265358979323846 * x);  // [-1, 1]
    return low + (high - low) * (wave + 1.0) / 2.0;
  };
}

std::string Scenario::Validate() const {
  if (name.empty()) return "scenario name is empty";
  if (phases.empty()) return "scenario has no phases";
  if (const std::string problem = latency.Validate(); !problem.empty()) {
    return problem;
  }
  if (const std::string problem = arrivals.Validate(); !problem.empty()) {
    return "arrivals: " + problem;
  }
  if (eager_gossip_budget < 0) return "eager_gossip_budget < 0";
  for (const ScenarioPhase& phase : phases) {
    const std::string where = "phase '" + phase.name + "': ";
    if (phase.name.empty()) return "a phase has an empty name";
    if (phase.cycles == 0) return where + "cycle budget is 0";
    if (phase.queries_per_cycle < 0) return where + "queries_per_cycle < 0";
    if (!(phase.stop_at_success_ratio >= 0.0 &&
          phase.stop_at_success_ratio <= 1.0)) {
      return where + "stop_at_success_ratio outside [0, 1]";
    }
    if (phase.queries_per_cycle > 0 && phase.mode == PhaseMode::kLazy) {
      return where + "background queries require an eager or mixed mode";
    }
    if (phase.arrivals.has_value()) {
      if (const std::string problem = phase.arrivals->Validate();
          !problem.empty()) {
        return where + "arrivals: " + problem;
      }
      if (!phase.arrivals->IsNone() && phase.mode == PhaseMode::kLazy) {
        return where + "open-loop arrivals require an eager or mixed mode";
      }
    }
    for (const ScenarioEvent& event : phase.events) {
      const std::string which =
          where + std::string(EventKindName(event.kind)) + " event: ";
      if (event.at_cycle >= phase.cycles) {
        return which + "scheduled at or past the phase end";
      }
      switch (event.kind) {
        case EventKind::kDeparture:
        case EventKind::kRejoin:
          if (!(event.fraction >= 0.0 && event.fraction <= 1.0)) {
            return which + "fraction outside [0, 1]";
          }
          break;
        case EventKind::kQueryBurst:
          if (event.count <= 0) return which + "count must be positive";
          if (phase.mode == PhaseMode::kLazy) {
            return which + "requires an eager or mixed mode";
          }
          break;
        case EventKind::kUpdateStorm:
          if (!(event.update.changed_user_fraction >= 0.0 &&
                event.update.changed_user_fraction <= 1.0)) {
            return which + "changed_user_fraction outside [0, 1]";
          }
          break;
      }
    }
  }
  return "";
}

}  // namespace p3q
