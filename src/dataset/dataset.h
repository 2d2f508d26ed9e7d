// In-memory tagging dataset: the per-user action lists the simulation runs on.
//
// The paper evaluates on a delicious crawl (10,000 users, 101,144 items,
// 31,899 tags, 9,536,635 actions after reduction). This class holds an
// equivalent synthetic structure (dataset/generator.h).
#ifndef P3Q_DATASET_DATASET_H_
#define P3Q_DATASET_DATASET_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "profile/profile_store.h"

namespace p3q {

/// Summary statistics of a dataset (the numbers Table/Section 3.1 reports).
struct DatasetStats {
  std::size_t num_users = 0;
  std::size_t num_items = 0;   // distinct items actually used
  std::size_t num_tags = 0;    // distinct tags actually used
  std::size_t num_actions = 0;
  double mean_profile_length = 0;  // actions per user
  double mean_items_per_user = 0;
  std::size_t max_items_per_user = 0;
};

/// A collaborative-tagging dataset: one sorted unique action list per user.
class Dataset {
 public:
  Dataset() = default;

  /// Takes ownership of per-user action lists (index = user id). Lists are
  /// sorted and deduplicated.
  explicit Dataset(std::vector<std::vector<ActionKey>> user_actions);

  std::size_t NumUsers() const { return user_actions_.size(); }

  /// Sorted unique actions of one user.
  const std::vector<ActionKey>& ActionsOf(UserId user) const {
    return user_actions_[user];
  }

  /// Computes distinct-item/tag/action statistics.
  DatasetStats ComputeStats() const;

  /// Builds the authoritative profile store (version-0 snapshots).
  ProfileStore BuildProfileStore(std::size_t digest_bits = kDefaultDigestBits) const;

 private:
  std::vector<std::vector<ActionKey>> user_actions_;
};

}  // namespace p3q

#endif  // P3Q_DATASET_DATASET_H_
