#include "scenario/registry.h"

#include <cassert>
#include <stdexcept>

namespace p3q {
namespace {

ScenarioEvent Departure(std::uint64_t at_cycle, double fraction) {
  ScenarioEvent e;
  e.at_cycle = at_cycle;
  e.kind = EventKind::kDeparture;
  e.fraction = fraction;
  return e;
}

ScenarioEvent Rejoin(std::uint64_t at_cycle, double fraction) {
  ScenarioEvent e;
  e.at_cycle = at_cycle;
  e.kind = EventKind::kRejoin;
  e.fraction = fraction;
  return e;
}

ScenarioEvent QueryBurst(std::uint64_t at_cycle, int count) {
  ScenarioEvent e;
  e.at_cycle = at_cycle;
  e.kind = EventKind::kQueryBurst;
  e.count = count;
  return e;
}

ScenarioEvent UpdateStorm(std::uint64_t at_cycle,
                          UpdateConfig update = UpdateConfig{}) {
  ScenarioEvent e;
  e.at_cycle = at_cycle;
  e.kind = EventKind::kUpdateStorm;
  e.update = update;
  return e;
}

ScenarioPhase Phase(std::string name, std::uint64_t cycles, PhaseMode mode,
                    int queries_per_cycle = 0,
                    std::vector<ScenarioEvent> events = {},
                    DutyCycleFn duty = nullptr) {
  ScenarioPhase p;
  p.name = std::move(name);
  p.cycles = cycles;
  p.mode = mode;
  p.queries_per_cycle = queries_per_cycle;
  p.events = std::move(events);
  p.duty = std::move(duty);
  return p;
}

Scenario SteadyState() {
  Scenario s;
  s.name = "steady-state";
  s.description =
      "Converge the personal networks, then serve a steady trickle of "
      "queries while maintenance keeps running.";
  s.phases.push_back(Phase("converge", 40, PhaseMode::kLazy));
  s.phases.push_back(Phase("serve", 15, PhaseMode::kMixed,
                           /*queries_per_cycle=*/2));
  return s;
}

Scenario MassiveDeparture() {
  Scenario s;
  s.name = "massive-departure";
  s.description =
      "The paper's Section 3.4.2 situation: converge, half the population "
      "leaves at once, queries keep coming over the survivors' replicas.";
  s.phases.push_back(Phase("converge", 40, PhaseMode::kLazy));
  s.phases.push_back(Phase("outage", 12, PhaseMode::kEager,
                           /*queries_per_cycle=*/2, {Departure(0, 0.5)}));
  s.phases.push_back(Phase("repair", 15, PhaseMode::kMixed,
                           /*queries_per_cycle=*/1));
  return s;
}

Scenario Diurnal() {
  Scenario s;
  s.name = "diurnal";
  s.description =
      "Day/night availability wave: a duty cycle takes two thirds of the "
      "population offline towards mid-phase and brings it back (rejoining "
      "nodes re-bootstrap their random views), with queries throughout.";
  s.phases.push_back(Phase("converge", 30, PhaseMode::kLazy));
  s.phases.push_back(Phase("day-night-day", 24, PhaseMode::kMixed,
                           /*queries_per_cycle=*/1, {},
                           DiurnalDuty(1.0, 0.35)));
  s.phases.push_back(Phase("full-house", 8, PhaseMode::kMixed,
                           /*queries_per_cycle=*/2, {}, ConstantDuty(1.0)));
  return s;
}

Scenario FlashCrowd() {
  Scenario s;
  s.name = "flash-crowd";
  s.description =
      "Two query bursts hit a converged network back to back — the "
      "concurrent-query load the per-query bandwidth analysis assumes away.";
  s.phases.push_back(Phase("converge", 30, PhaseMode::kLazy));
  s.phases.push_back(Phase("crowd", 14, PhaseMode::kMixed,
                           /*queries_per_cycle=*/0,
                           {QueryBurst(0, 25), QueryBurst(5, 25)}));
  return s;
}

Scenario UpdateStormScenario() {
  Scenario s;
  s.name = "update-storm";
  s.description =
      "Two profile-update batches (Section 3.4.1 shape) land on a converged "
      "network while queries measure how staleness hurts recall.";
  s.phases.push_back(Phase("converge", 30, PhaseMode::kLazy));
  s.phases.push_back(Phase("storm", 18, PhaseMode::kMixed,
                           /*queries_per_cycle=*/1,
                           {UpdateStorm(0), UpdateStorm(9)}));
  return s;
}

Scenario ChurnGrind() {
  Scenario s;
  s.name = "churn-grind";
  s.description =
      "Sustained churn: every third cycle a small departure wave, every "
      "third cycle a rejoin wave, for thirty cycles of mixed load.";
  s.phases.push_back(Phase("converge", 25, PhaseMode::kLazy));
  std::vector<ScenarioEvent> waves;
  for (std::uint64_t c = 0; c + 2 < 30; c += 3) {
    waves.push_back(Departure(c, 0.10));
    waves.push_back(Rejoin(c + 2, 0.50));
  }
  s.phases.push_back(Phase("grind", 30, PhaseMode::kMixed,
                           /*queries_per_cycle=*/1, std::move(waves)));
  s.phases.push_back(Phase("recover", 10, PhaseMode::kMixed,
                           /*queries_per_cycle=*/1, {Rejoin(0, 1.0)}));
  return s;
}

Scenario ColdStartQuery() {
  Scenario s;
  s.name = "cold-start-query";
  s.description =
      "No convergence head start: queries are issued from the very first "
      "cycle while the lazy mode is still building the networks.";
  s.phases.push_back(Phase("cold", 10, PhaseMode::kMixed,
                           /*queries_per_cycle=*/2));
  s.phases.push_back(Phase("warming", 25, PhaseMode::kMixed,
                           /*queries_per_cycle=*/2));
  return s;
}

Scenario LaggedSteady() {
  Scenario s;
  s.name = "lagged-steady";
  s.description =
      "The steady-state timeline under FixedLatency{2}: every gossip "
      "effect is in flight for two cycles, so convergence and query "
      "completion pay a real propagation delay.";
  s.latency.kind = LatencyKind::kFixed;
  s.latency.fixed = 2;
  s.phases.push_back(Phase("converge", 40, PhaseMode::kLazy));
  s.phases.push_back(Phase("serve", 15, PhaseMode::kMixed,
                           /*queries_per_cycle=*/2));
  return s;
}

Scenario LossyFlashCrowd() {
  Scenario s;
  s.name = "lossy-flash-crowd";
  s.description =
      "The flash-crowd bursts on a lossy wire (10% of messages dropped, "
      "survivors delayed up to 3 cycles): eager tasks must survive on "
      "timeout re-issues.";
  s.latency.kind = LatencyKind::kLossy;
  s.latency.loss = 0.10;
  s.latency.max_delay = 3;
  s.phases.push_back(Phase("converge", 30, PhaseMode::kLazy));
  s.phases.push_back(Phase("crowd", 18, PhaseMode::kMixed,
                           /*queries_per_cycle=*/0,
                           {QueryBurst(0, 25), QueryBurst(6, 25)}));
  return s;
}

Scenario OpenLoopSteady() {
  Scenario s;
  s.name = "open-loop-steady";
  s.description =
      "Converge, then serve an open-loop Poisson query stream (2/cycle "
      "mean) for forty cycles: per-query latency percentiles and SLO "
      "goodput instead of the closed-loop phase-boundary sample.";
  s.arrivals.kind = ArrivalKind::kPoisson;
  s.arrivals.rate = 2.0;
  s.arrivals.slo_cycles = 8;
  s.phases.push_back(Phase("converge", 40, PhaseMode::kLazy));
  s.phases.push_back(Phase("serve", 40, PhaseMode::kMixed));
  return s;
}

Scenario OpenLoopSaturation() {
  Scenario s;
  s.name = "open-loop-saturation";
  s.description =
      "The open-loop stream against a finite service rate (each node plans "
      "at most one eager gossip per cycle): past the capacity knee, queries "
      "queue and the latency percentiles grow — the saturation sweep's "
      "target (--arrival-rate / --arrival-sweep override the rate).";
  s.arrivals.kind = ArrivalKind::kPoisson;
  s.arrivals.rate = 4.0;
  s.arrivals.slo_cycles = 8;
  s.eager_gossip_budget = 1;
  s.phases.push_back(Phase("converge", 40, PhaseMode::kLazy));
  s.phases.push_back(Phase("serve", 40, PhaseMode::kMixed));
  return s;
}

Scenario MixedStress() {
  Scenario s;
  s.name = "mixed-stress";
  s.description =
      "Everything at once: a departure wave, an update storm, a flash "
      "crowd and a mass rejoin on one timeline, then a settle phase.";
  s.phases.push_back(Phase("converge", 25, PhaseMode::kLazy));
  s.phases.push_back(Phase("stress", 24, PhaseMode::kMixed,
                           /*queries_per_cycle=*/2,
                           {Departure(2, 0.3), UpdateStorm(6),
                            QueryBurst(10, 20), Rejoin(14, 1.0),
                            Departure(18, 0.2)}));
  s.phases.push_back(Phase("settle", 8, PhaseMode::kMixed,
                           /*queries_per_cycle=*/1, {}, ConstantDuty(1.0)));
  return s;
}

Scenario Convergence() {
  Scenario s;
  s.name = "convergence";
  s.description =
      "The paper's Figure 2 measure: lazy cycles from a cold start until "
      "the gossip-built personal networks reach a 0.9 success ratio "
      "against the ideal ones (at most 300 cycles); the CI convergence "
      "gate.";
  s.phases.push_back(Phase("converge", 300, PhaseMode::kLazy));
  s.phases.back().stop_at_success_ratio = 0.9;
  return s;
}

using ScenarioFactory = Scenario (*)();

struct RegistryEntry {
  const char* name;
  ScenarioFactory factory;
};

// Registry order is presentation order (simplest first).
constexpr RegistryEntry kRegistry[] = {
    {"steady-state", SteadyState},
    {"massive-departure", MassiveDeparture},
    {"diurnal", Diurnal},
    {"flash-crowd", FlashCrowd},
    {"update-storm", UpdateStormScenario},
    {"churn-grind", ChurnGrind},
    {"cold-start-query", ColdStartQuery},
    {"mixed-stress", MixedStress},
    {"lagged-steady", LaggedSteady},
    {"lossy-flash-crowd", LossyFlashCrowd},
    {"open-loop-steady", OpenLoopSteady},
    {"open-loop-saturation", OpenLoopSaturation},
    {"convergence", Convergence},
};

const RegistryEntry* FindEntry(const std::string& name) {
  for (const RegistryEntry& entry : kRegistry) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

}  // namespace

std::vector<std::string> RegisteredScenarioNames() {
  std::vector<std::string> names;
  for (const RegistryEntry& entry : kRegistry) names.emplace_back(entry.name);
  return names;
}

bool HasScenario(const std::string& name) { return FindEntry(name) != nullptr; }

Scenario MakeScenario(const std::string& name) {
  const RegistryEntry* entry = FindEntry(name);
  if (entry == nullptr) {
    throw std::invalid_argument("unknown scenario: " + name);
  }
  Scenario scenario = entry->factory();
  assert(scenario.Validate().empty());
  assert(scenario.name == name);
  return scenario;
}

std::string ScenarioDescription(const std::string& name) {
  const RegistryEntry* entry = FindEntry(name);
  return entry == nullptr ? std::string() : entry->factory().description;
}

}  // namespace p3q
