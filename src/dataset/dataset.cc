#include "dataset/dataset.h"

#include <algorithm>
#include <unordered_set>

namespace p3q {

Dataset::Dataset(std::vector<std::vector<ActionKey>> user_actions)
    : user_actions_(std::move(user_actions)) {
  for (auto& actions : user_actions_) {
    std::sort(actions.begin(), actions.end());
    actions.erase(std::unique(actions.begin(), actions.end()), actions.end());
  }
}

DatasetStats Dataset::ComputeStats() const {
  DatasetStats stats;
  stats.num_users = user_actions_.size();
  std::unordered_set<ItemId> items;
  std::unordered_set<TagId> tags;
  std::size_t total_items_per_user = 0;
  for (const auto& actions : user_actions_) {
    stats.num_actions += actions.size();
    ItemId last = kInvalidItem;
    std::size_t user_items = 0;
    for (ActionKey a : actions) {
      items.insert(ActionItem(a));
      tags.insert(ActionTag(a));
      if (ActionItem(a) != last) {
        ++user_items;
        last = ActionItem(a);
      }
    }
    total_items_per_user += user_items;
    stats.max_items_per_user = std::max(stats.max_items_per_user, user_items);
  }
  stats.num_items = items.size();
  stats.num_tags = tags.size();
  if (stats.num_users > 0) {
    stats.mean_profile_length =
        static_cast<double>(stats.num_actions) / stats.num_users;
    stats.mean_items_per_user =
        static_cast<double>(total_items_per_user) / stats.num_users;
  }
  return stats;
}

ProfileStore Dataset::BuildProfileStore(std::size_t digest_bits) const {
  ProfileStore store;
  for (std::size_t u = 0; u < user_actions_.size(); ++u) {
    store.AddUser(static_cast<UserId>(u), user_actions_[u], digest_bits);
  }
  return store;
}

}  // namespace p3q
