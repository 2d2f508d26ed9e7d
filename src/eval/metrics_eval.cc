#include "eval/metrics_eval.h"

#include <algorithm>

namespace p3q {

double AverageSuccessRatio(const P3QSystem& system, const IdealNetworks& ideal) {
  double sum = 0;
  std::size_t counted = 0;
  for (UserId u = 0; u < static_cast<UserId>(system.NumUsers()); ++u) {
    const auto& ideal_list = ideal[u];
    if (ideal_list.empty()) continue;  // a user with no similar peers
    const PersonalNetwork& network = system.node(u).network();
    std::size_t good = 0;
    for (const auto& [v, score] : ideal_list) {
      if (network.Contains(v)) ++good;
    }
    sum += static_cast<double>(good) / static_cast<double>(ideal_list.size());
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

namespace {

/// Shared AUR kernel over an explicit user range.
template <typename UserRange>
double AurOver(const P3QSystem& system, const std::unordered_set<UserId>& changed,
               const UserRange& users) {
  double sum = 0;
  std::size_t counted = 0;
  const ProfileStore& store = system.profile_store();
  for (UserId u : users) {
    const PersonalNetwork& network = system.node(u).network();
    std::size_t subject = 0;
    std::size_t updated = 0;
    for (const NetworkEntry& e : network.entries()) {
      if (!e.HasStoredProfile()) continue;
      if (changed.count(e.user) == 0) continue;
      ++subject;
      if (network.StoredProfileOf(e)->version() ==
          store.CurrentVersion(e.user)) {
        ++updated;
      }
    }
    if (subject == 0) continue;
    sum += static_cast<double>(updated) / static_cast<double>(subject);
    ++counted;
  }
  return counted == 0 ? 1.0 : sum / static_cast<double>(counted);
}

struct AllUsersRange {
  std::size_t n;
  struct Iterator {
    UserId u;
    UserId operator*() const { return u; }
    Iterator& operator++() {
      ++u;
      return *this;
    }
    bool operator!=(const Iterator& o) const { return u != o.u; }
  };
  Iterator begin() const { return Iterator{0}; }
  Iterator end() const { return Iterator{static_cast<UserId>(n)}; }
};

}  // namespace

double AverageUpdateRate(const P3QSystem& system,
                         const std::unordered_set<UserId>& changed) {
  return AurOver(system, changed, AllUsersRange{system.NumUsers()});
}

double AverageUpdateRate(const P3QSystem& system,
                         const std::unordered_set<UserId>& changed,
                         const std::vector<UserId>& over_users) {
  return AurOver(system, changed, over_users);
}

std::vector<std::size_t> ProfilesToUpdatePerUser(
    const P3QSystem& system, const std::unordered_set<UserId>& changed) {
  std::vector<std::size_t> counts(system.NumUsers(), 0);
  for (UserId u = 0; u < static_cast<UserId>(system.NumUsers()); ++u) {
    const PersonalNetwork& network = system.node(u).network();
    for (const NetworkEntry& e : network.entries()) {
      if (e.HasStoredProfile() && changed.count(e.user) > 0) ++counts[u];
    }
  }
  return counts;
}

double FractionWithCompleteNewNetwork(const P3QSystem& system,
                                      const IdealNetworks& ideal_before,
                                      const IdealNetworks& ideal_after) {
  std::size_t should_change = 0;
  std::size_t complete = 0;
  for (UserId u = 0; u < static_cast<UserId>(system.NumUsers()); ++u) {
    std::unordered_set<UserId> before;
    for (const auto& [v, s] : ideal_before[u]) before.insert(v);
    std::vector<UserId> new_neighbours;
    for (const auto& [v, s] : ideal_after[u]) {
      if (before.count(v) == 0) new_neighbours.push_back(v);
    }
    if (new_neighbours.empty()) continue;
    ++should_change;
    const PersonalNetwork& network = system.node(u).network();
    const bool all = std::all_of(
        new_neighbours.begin(), new_neighbours.end(),
        [&network](UserId v) { return network.Contains(v); });
    if (all) ++complete;
  }
  return should_change == 0
             ? 1.0
             : static_cast<double>(complete) / static_cast<double>(should_change);
}

std::size_t StoredProfileLength(const P3QSystem& system, UserId user) {
  return system.node(user).network().StoredProfileActions();
}

std::unordered_set<UserId> ChangedUsers(const UpdateBatch& batch) {
  std::unordered_set<UserId> changed;
  for (const ProfileUpdate& u : batch.updates) changed.insert(u.user);
  return changed;
}

}  // namespace p3q
