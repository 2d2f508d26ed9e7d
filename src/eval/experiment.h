// Shared experiment runners used by the benchmark harness.
//
// Every bench binary regenerates one table/figure of the paper; the heavy
// lifting — building a system at a given scale, seeding converged personal
// networks, batching queries and averaging per-cycle recall — is shared
// here so a bench stays a thin parameter sweep.
#ifndef P3Q_EVAL_EXPERIMENT_H_
#define P3Q_EVAL_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "baseline/ideal_network.h"
#include "core/p3q_system.h"
#include "core/query.h"
#include "dataset/generator.h"
#include "dataset/query_gen.h"
#include "dataset/storage_dist.h"

namespace p3q {

/// A ready-to-run experiment environment: trace + ideal networks (cached
/// per scale) + the queries of the paper's workload (one per user).
class ExperimentEnv {
 public:
  /// users: population size; network_size: s; seed drives everything.
  ExperimentEnv(int users, int network_size, std::uint64_t seed);

  const SyntheticTrace& trace() const { return trace_; }
  const Dataset& dataset() const { return trace_.dataset(); }
  const IdealNetworks& ideal() const { return ideal_; }
  int network_size() const { return network_size_; }
  std::uint64_t seed() const { return seed_; }

  /// All generated queries (one per user with a non-empty profile).
  const std::vector<QuerySpec>& queries() const { return queries_; }

  /// A deterministic sample of n queries (n <= queries().size()).
  std::vector<QuerySpec> SampleQueries(std::size_t n) const;

  /// Builds a system with converged (seeded) personal networks. Storage: a
  /// uniform c or a per-user assignment (from StorageDistribution). The
  /// config's proposal fanout is rescaled to the env's s (see ScaledConfig).
  std::unique_ptr<P3QSystem> MakeSeededSystem(const P3QConfig& config,
                                              std::vector<int> per_user_c) const;

  /// Like MakeSeededSystem but honours the config verbatim except for the
  /// network size. Used by experiments that need the paper's *absolute*
  /// parameters (e.g. Figure 9 runs c=10 with the ungated 50-digest fanout).
  std::unique_ptr<P3QSystem> MakeSeededSystemExact(
      const P3QConfig& config, std::vector<int> per_user_c) const;

  /// Builds a cold system (empty personal networks, bootstrapped random
  /// views) for convergence experiments.
  std::unique_ptr<P3QSystem> MakeColdSystem(const P3QConfig& config,
                                            std::vector<int> per_user_c) const;

 private:
  /// Applies the env's scale to a config: s and the proposal fanout (the
  /// paper's 50-digest cap at s=1000, kept proportional at reduced scale).
  P3QConfig ScaledConfig(const P3QConfig& config) const;

  int network_size_;
  std::uint64_t seed_;
  SyntheticTrace trace_;
  IdealNetworks ideal_;
  std::vector<QuerySpec> queries_;
};

/// Issues the queries in batches against the system, runs `cycles` eager
/// cycles per batch, and returns the recall-vs-cycle curve averaged over
/// all queries (index 0 = local result before any gossip). Queries that
/// complete early keep their final recall for the remaining cycles.
/// Completed query state is forgotten after each batch to bound memory.
std::vector<double> AverageRecallCurve(P3QSystem* system,
                                       const std::vector<QuerySpec>& queries,
                                       int cycles, std::size_t batch_size = 64);

/// Per-query statistics harvested by RunQueryBatch.
struct QueryRunStats {
  std::size_t users_reached = 0;
  QueryTraffic traffic;
  bool complete = false;
  double final_recall = 0;
  int cycles_to_complete = -1;  // -1 when not complete within the run
};

/// Runs each query for `cycles` eager cycles and collects per-query cost
/// and quality statistics (Figures 6, 8, 11c).
std::vector<QueryRunStats> RunQueryBatch(P3QSystem* system,
                                         const std::vector<QuerySpec>& queries,
                                         int cycles,
                                         std::size_t batch_size = 64);

}  // namespace p3q

#endif  // P3Q_EVAL_EXPERIMENT_H_
