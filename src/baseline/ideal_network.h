// Offline ideal personal networks (the evaluation's reference structure).
//
// The success-ratio metric of Figure 2 compares every user's gossip-built
// personal network against "the ideal one obtained off-line using the
// global information about all users' profiles": the s users with the
// highest similarity scores. This module computes those lists exactly with
// an inverted index over tagging actions (far cheaper than the naive
// all-pairs intersection for long-tailed traces).
//
// The index is flat: the distinct actions are sorted once, each user's
// actions become ids into them, and each action's postings (its users, in
// ascending order) sit in one CSR array. Every list is copied out at its
// exact length, so capacity() == size(), and the index is freed before
// the lists are returned. Callers keep the lists for a whole run (the
// scenario runner's success ratio), so they are measuring apparatus, not
// simulated state; MemoryReport::ideal_network_bytes names their bytes.
#ifndef P3Q_BASELINE_IDEAL_NETWORK_H_
#define P3Q_BASELINE_IDEAL_NETWORK_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "dataset/dataset.h"
#include "profile/profile_store.h"
#include "profile/similarity.h"

namespace p3q {

/// Per user, her ideal neighbours as (user, score), score descending (ties:
/// ascending id), truncated to the s best, scores always positive.
using IdealNetworks = std::vector<std::vector<std::pair<UserId, std::uint64_t>>>;

/// Computes ideal networks from the dataset's version-0 profiles, under the
/// given similarity metric.
IdealNetworks ComputeIdealNetworks(
    const Dataset& dataset, int network_size,
    SimilarityMetric metric = SimilarityMetric::kCommonActions);

/// Computes ideal networks from the *current* snapshots of a profile store
/// (used after update batches, Figure 10).
IdealNetworks ComputeIdealNetworks(
    const ProfileStore& store, int network_size,
    SimilarityMetric metric = SimilarityMetric::kCommonActions);

/// Million-user variant: computes exact ideal networks for a deterministic
/// sample of `sample_size` users only (drawn from `seed`, independent of
/// the system's rng streams) and leaves every other user's list empty —
/// AverageSuccessRatio skips empty lists, so the success ratio becomes a
/// sampled estimate. Scoring runs through the batched block-bitmap kernel,
/// O(sample_size × users) pair scores, instead of scoring every user
/// through the inverted index; the sampled lists take the same top-s step
/// and exact capacity. Falls back to the exact computation when
/// sample_size >= NumUsers().
IdealNetworks ComputeIdealNetworksSampled(
    const ProfileStore& store, int network_size, std::size_t sample_size,
    std::uint64_t seed,
    SimilarityMetric metric = SimilarityMetric::kCommonActions);

/// Capacity bytes of the lists and of the outer vector that holds them.
std::uint64_t IdealNetworkBytes(const IdealNetworks& ideal);

}  // namespace p3q

#endif  // P3Q_BASELINE_IDEAL_NETWORK_H_
