#include "core/config.h"

namespace p3q {

std::string P3QConfig::Validate() const {
  if (network_size <= 0) return "network_size (s) must be positive";
  if (stored_profiles <= 0) return "stored_profiles (c) must be positive";
  if (stored_profiles > network_size) {
    return "stored_profiles (c) cannot exceed network_size (s)";
  }
  if (random_view_size <= 0) return "random_view_size (r) must be positive";
  if (gossip_profile_fanout <= 0) return "gossip_profile_fanout must be positive";
  if (alpha < 0.0 || alpha > 1.0) return "alpha must be in [0, 1]";
  if (top_k <= 0) return "top_k must be positive";
  if (digest_bits < 64) return "digest_bits must be at least 64";
  if (eager_gossip_budget < 0) return "eager_gossip_budget must be non-negative";
  return "";
}

}  // namespace p3q
