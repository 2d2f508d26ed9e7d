#include "baseline/centralized_topk.h"

#include <algorithm>

namespace p3q {

std::vector<std::pair<ItemId, std::uint64_t>> CentralizedTopK(
    const std::vector<ProfilePtr>& profiles, const std::vector<TagId>& tags,
    int k) {
  std::vector<const Profile*> borrowed;
  borrowed.reserve(profiles.size());
  for (const ProfilePtr& profile : profiles) borrowed.push_back(profile.get());
  std::vector<ItemScore> hits;
  const std::vector<ItemScore> ranked =
      RankQueryScores(borrowed, QueryTags(tags), &hits);
  const std::size_t n = std::min(ranked.size(), static_cast<std::size_t>(k));
  return std::vector<std::pair<ItemId, std::uint64_t>>(
      ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(n));
}

std::vector<ItemId> ReferenceTopK(const P3QSystem& system,
                                  const QuerySpec& spec, int k) {
  const P3QNode& querier = system.node(spec.querier);
  std::vector<ProfilePtr> profiles;
  profiles.reserve(querier.network().size());
  for (const NetworkEntry& e : querier.network().entries()) {
    profiles.push_back(system.profile_store().Get(e.user));
  }
  std::vector<ItemId> items;
  for (const auto& [item, score] : CentralizedTopK(profiles, spec.tags, k)) {
    items.push_back(item);
  }
  return items;
}

}  // namespace p3q
