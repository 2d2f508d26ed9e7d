// Figure 9 — "AUR evolution in eager mode": a single user fires consecutive
// queries (no lazy cycles in between); the piggybacked maintenance of eager
// gossip refreshes the personal networks of exactly the users reached.
//
// The paper runs this under the λ=1 storage distribution, which is
// dominated by c ∈ {10, 20} (73% of users). Scaling those c values down
// with s would leave almost no stored replicas to refresh, so this bench
// keeps the paper's *absolute* dominant storage class: uniform c = 10 with
// the ungated 50-digest proposal fanout.
#include <algorithm>
#include <iostream>
#include <iterator>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "eval/experiment.h"
#include "eval/metrics_eval.h"

using namespace p3q;
using bench::Banner;
using bench::Emit;
using bench::PaperNote;

int main() {
  const BenchScale scale = ResolveBenchScale(800);
  Banner("Figure 9", "update rate for users reached by consecutive queries",
         scale);
  const ExperimentEnv env(scale.users, scale.network_size, 9);
  const int max_queries =
      static_cast<int>(GetEnvInt("P3Q_BENCH_QUERIES", scale.full ? 200 : 120));

  P3QConfig config;
  config.stored_profiles = 10;  // the dominant lambda=1 storage class
  auto system = env.MakeSeededSystemExact(config, {});

  Rng rng(41);
  const UpdateBatch batch = env.trace().MakeUpdateBatch(UpdateConfig{}, &rng);
  system->ApplyUpdateBatch(batch);
  const auto changed = ChangedUsers(batch);

  // One user issues query after query; each runs to completion (or 15
  // cycles) before the next, mimicking "a series of queries ... before the
  // next cycle of lazy gossip begins".
  const UserId querier = env.queries().front().querier;
  std::vector<UserId> reached_union;  // ascending
  TablePrinter table({"queries issued", "users reached (cum.)",
                      "AUR over reached", "replicas refreshed"});
  auto micro = [&](const std::vector<UserId>& over) {
    std::size_t subject = 0, updated = 0;
    for (UserId u : over) {
      const PersonalNetwork& network = system->node(u).network();
      for (const NetworkEntry& e : network.entries()) {
        if (!e.HasStoredProfile() || changed.count(e.user) == 0) continue;
        ++subject;
        if (network.StoredProfileOf(e)->version() ==
            system->profile_store().CurrentVersion(e.user)) {
          ++updated;
        }
      }
    }
    return std::to_string(updated) + "/" + std::to_string(subject);
  };
  int checkpoint = 1;
  for (int q = 1; q <= max_queries; ++q) {
    const QuerySpec spec = GenerateQueryForUser(env.dataset(), querier, &rng);
    if (spec.tags.empty()) continue;
    const std::uint64_t qid = system->IssueQuery(spec);
    system->RunEagerCycles(15);
    const std::vector<UserId>& reached = system->QueryReached(qid);
    std::vector<UserId> merged;
    std::set_union(reached_union.begin(), reached_union.end(),
                   reached.begin(), reached.end(), std::back_inserter(merged));
    reached_union = std::move(merged);
    system->ForgetQuery(qid);
    if (q == checkpoint || q == max_queries) {
      table.AddRow(
          {TablePrinter::Fmt(q), TablePrinter::Fmt(reached_union.size()),
           TablePrinter::Fmt(AverageUpdateRate(*system, changed, reached_union)),
           micro(reached_union)});
      checkpoint = checkpoint < 16 ? checkpoint * 2 : checkpoint + 24;
    }
  }
  Emit(table, scale);
  PaperNote(
      "a single query already refreshes ~24% of the changed replicas among "
      "reached users; 10 consecutive queries push past 60%; the curve then "
      "saturates below 1 because users never reached by any query keep their "
      "stale replicas until lazy gossip returns.");
  return 0;
}
