#include "eval/experiment.h"

#include <algorithm>

#include "baseline/centralized_topk.h"
#include "eval/recall.h"

namespace p3q {

ExperimentEnv::ExperimentEnv(int users, int network_size, std::uint64_t seed)
    : network_size_(network_size),
      seed_(seed),
      trace_(GenerateSyntheticTrace(SyntheticConfig::DeliciousLike(users), seed)),
      ideal_(ComputeIdealNetworks(trace_.dataset(), network_size)) {
  Rng rng(seed ^ 0xabcdef1234567890ULL);
  queries_ = GenerateQueries(trace_.dataset(), &rng);
}

std::vector<QuerySpec> ExperimentEnv::SampleQueries(std::size_t n) const {
  if (n >= queries_.size()) return queries_;
  Rng rng(seed_ ^ 0x5151515151515151ULL);
  return rng.SampleWithoutReplacement(queries_, n);
}

P3QConfig ExperimentEnv::ScaledConfig(const P3QConfig& config) const {
  P3QConfig cfg = config;
  cfg.network_size = network_size_;
  // The paper proposes at most 50 profile digests per gossip at s = 1000;
  // keep the same fanout/s ratio so the fanout gates dissemination the same
  // way at reduced scale (at paper scale this is exactly 50).
  cfg.gossip_profile_fanout = std::max(2, network_size_ / 20);
  return cfg;
}

std::unique_ptr<P3QSystem> ExperimentEnv::MakeSeededSystem(
    const P3QConfig& config, std::vector<int> per_user_c) const {
  auto system = std::make_unique<P3QSystem>(dataset(), ScaledConfig(config),
                                            std::move(per_user_c), seed_ + 1);
  system->BootstrapRandomViews();
  system->SeedNetworks(ideal_);
  return system;
}

std::unique_ptr<P3QSystem> ExperimentEnv::MakeSeededSystemExact(
    const P3QConfig& config, std::vector<int> per_user_c) const {
  P3QConfig cfg = config;
  cfg.network_size = network_size_;
  auto system = std::make_unique<P3QSystem>(dataset(), cfg,
                                            std::move(per_user_c), seed_ + 1);
  system->BootstrapRandomViews();
  system->SeedNetworks(ideal_);
  return system;
}

std::unique_ptr<P3QSystem> ExperimentEnv::MakeColdSystem(
    const P3QConfig& config, std::vector<int> per_user_c) const {
  auto system = std::make_unique<P3QSystem>(dataset(), ScaledConfig(config),
                                            std::move(per_user_c), seed_ + 1);
  system->BootstrapRandomViews();
  return system;
}

namespace {

/// Recall of one query at each cycle; completed queries hold their final
/// value to the end of the horizon.
std::vector<double> PerCycleRecall(const ActiveQuery& query,
                                   const std::vector<ItemId>& reference,
                                   int cycles) {
  std::vector<double> curve;
  curve.reserve(static_cast<std::size_t>(cycles) + 1);
  const auto& history = query.history();
  for (int cycle = 0; cycle <= cycles; ++cycle) {
    const std::size_t idx =
        std::min(static_cast<std::size_t>(cycle), history.size() - 1);
    std::vector<ItemId> items;
    for (const RankedItem& r : history[idx].top_k) items.push_back(r.item);
    curve.push_back(RecallAtK(items, reference));
  }
  return curve;
}

}  // namespace

std::vector<double> AverageRecallCurve(P3QSystem* system,
                                       const std::vector<QuerySpec>& queries,
                                       int cycles, std::size_t batch_size) {
  std::vector<double> sum(static_cast<std::size_t>(cycles) + 1, 0.0);
  std::size_t counted = 0;
  for (std::size_t start = 0; start < queries.size(); start += batch_size) {
    const std::size_t end = std::min(queries.size(), start + batch_size);
    std::vector<std::uint64_t> ids;
    std::vector<std::vector<ItemId>> references;
    for (std::size_t i = start; i < end; ++i) {
      references.push_back(
          ReferenceTopK(*system, queries[i], system->config().top_k));
      ids.push_back(system->IssueQuery(queries[i]));
    }
    system->RunEagerCycles(static_cast<std::uint64_t>(cycles));
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::vector<double> curve =
          PerCycleRecall(system->query(ids[i]), references[i], cycles);
      for (std::size_t c = 0; c < curve.size(); ++c) sum[c] += curve[c];
      ++counted;
      system->ForgetQuery(ids[i]);
    }
  }
  if (counted > 0) {
    for (double& v : sum) v /= static_cast<double>(counted);
  }
  return sum;
}

std::vector<QueryRunStats> RunQueryBatch(P3QSystem* system,
                                         const std::vector<QuerySpec>& queries,
                                         int cycles, std::size_t batch_size) {
  std::vector<QueryRunStats> stats;
  stats.reserve(queries.size());
  for (std::size_t start = 0; start < queries.size(); start += batch_size) {
    const std::size_t end = std::min(queries.size(), start + batch_size);
    std::vector<std::uint64_t> ids;
    std::vector<std::vector<ItemId>> references;
    for (std::size_t i = start; i < end; ++i) {
      references.push_back(
          ReferenceTopK(*system, queries[i], system->config().top_k));
      ids.push_back(system->IssueQuery(queries[i]));
    }
    system->RunEagerCycles(static_cast<std::uint64_t>(cycles));
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const ActiveQuery& q = system->query(ids[i]);
      QueryRunStats s;
      s.users_reached = system->QueryReached(ids[i]).size();
      s.traffic = q.traffic();
      s.complete = system->QueryComplete(ids[i]);
      std::vector<ItemId> items;
      for (const RankedItem& r : q.history().back().top_k) {
        items.push_back(r.item);
      }
      s.final_recall = RecallAtK(items, references[i]);
      if (s.complete) {
        s.cycles_to_complete = static_cast<int>(q.history().size()) - 1;
      }
      stats.push_back(s);
      system->ForgetQuery(ids[i]);
    }
  }
  return stats;
}

}  // namespace p3q
