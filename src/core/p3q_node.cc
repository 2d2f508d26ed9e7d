#include "core/p3q_node.h"

namespace p3q {

P3QNode::P3QNode(UserId self, ProfilePtr profile, const P3QConfig& config,
                 int storage_capacity, Rng rng)
    : self_(self),
      profile_(std::move(profile)),
      network_(self, config.network_size, storage_capacity),
      random_view_(self, static_cast<std::size_t>(config.random_view_size)),
      rng_(rng) {}

const ProfilePtr& P3QNode::FindUsableProfile(UserId user) const {
  if (user == self_) return profile_;
  return network_.StoredProfileOf(user);
}

}  // namespace p3q
