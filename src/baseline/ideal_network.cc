#include "baseline/ideal_network.h"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>

#include "common/random.h"
#include "profile/score_kernel.h"

namespace p3q {
namespace {

using IdealList = IdealNetworks::value_type;
using IdealEntry = IdealList::value_type;

/// The strict order of an ideal list: score descending, then user id.
bool Precedes(const IdealEntry& a, const IdealEntry& b) {
  if (a.second != b.second) return a.second > b.second;
  return a.first < b.first;
}

/// Sorts the s best entries of `scored` to its front and copies exactly
/// those into `list`, so the list's capacity is its size.
void AssignTopS(std::vector<IdealEntry>* scored, std::size_t s,
                IdealList* list) {
  const auto keep = scored->begin() +
                    static_cast<std::ptrdiff_t>(std::min(s, scored->size()));
  std::nth_element(scored->begin(), keep, scored->end(), Precedes);
  std::sort(scored->begin(), keep, Precedes);
  list->assign(scored->begin(), keep);
}

/// Flat inverted index over every user's actions, in CSR form: each user's
/// actions as ids into the sorted distinct actions, and per action id the
/// users holding it, in ascending user order.
struct ActionIndex {
  /// Every user's action ids, concatenated in user order: user u's are the
  /// actions[u].size() ids after those of users 0..u-1.
  std::vector<std::uint32_t> action_ids;
  std::vector<std::uint32_t> posting_begin;  ///< num_actions + 1 offsets
  std::vector<std::uint32_t> postings;       ///< user ids
};

ActionIndex BuildActionIndex(
    const std::vector<std::span<const ActionKey>>& actions) {
  const std::size_t num_users = actions.size();
  std::size_t total = 0;
  for (const auto& user_actions : actions) total += user_actions.size();
  if (total > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("ComputeIdealNetworks: more than 2^32 actions");
  }

  ActionIndex index;
  index.action_ids.reserve(total);
  {
    // An action's id is its rank among the distinct actions.
    std::vector<ActionKey> distinct;
    distinct.reserve(total);
    for (const auto& user_actions : actions) {
      distinct.insert(distinct.end(), user_actions.begin(),
                      user_actions.end());
    }
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    // Id i's count goes to posting_begin[i + 2]. After the prefix sum,
    // posting_begin[i + 1] is the first posting of i; the fill advances it
    // as a cursor to the end of i, which is the start of i + 1.
    index.posting_begin.assign(distinct.size() + 2, 0);
    for (const auto& user_actions : actions) {
      for (ActionKey a : user_actions) {
        const auto id = static_cast<std::uint32_t>(
            std::lower_bound(distinct.begin(), distinct.end(), a) -
            distinct.begin());
        index.action_ids.push_back(id);
        ++index.posting_begin[id + 2];
      }
    }
  }
  for (std::size_t i = 2; i < index.posting_begin.size(); ++i) {
    index.posting_begin[i] += index.posting_begin[i - 1];
  }
  // Users are visited in ascending id, so every posting list is sorted.
  index.postings.resize(total);
  const std::uint32_t* ids = index.action_ids.data();
  for (std::uint32_t u = 0; u < num_users; ++u) {
    for (std::uint32_t id : std::span(ids, actions[u].size())) {
      index.postings[index.posting_begin[id + 1]++] = u;
    }
    ids += actions[u].size();
  }
  index.posting_begin.pop_back();
  return index;
}

/// Shared kernel: per-user top-s similarity lists from per-user action sets.
IdealNetworks ComputeFromActions(
    const std::vector<std::span<const ActionKey>>& actions, int network_size,
    SimilarityMetric metric) {
  const std::size_t num_users = actions.size();
  const auto s = static_cast<std::size_t>(network_size);
  IdealNetworks ideal(num_users);
  {
    const ActionIndex index = BuildActionIndex(actions);
    std::vector<std::uint32_t> counts(num_users, 0);
    std::vector<std::uint32_t> touched;
    std::vector<IdealEntry> scored;
    const std::uint32_t* ids = index.action_ids.data();
    for (std::uint32_t u = 0; u < num_users; ++u) {
      touched.clear();
      for (std::uint32_t id : std::span(ids, actions[u].size())) {
        for (std::uint32_t p = index.posting_begin[id];
             p < index.posting_begin[id + 1]; ++p) {
          const std::uint32_t v = index.postings[p];
          if (v == u) continue;
          if (counts[v]++ == 0) touched.push_back(v);
        }
      }
      scored.clear();
      for (std::uint32_t v : touched) {
        const std::uint64_t score = SimilarityScore(
            metric, counts[v], actions[u].size(), actions[v].size());
        if (score > 0) scored.emplace_back(v, score);
        counts[v] = 0;
      }
      AssignTopS(&scored, s, &ideal[u]);
      ids += actions[u].size();
    }
  }  // the index and the scratch vectors are freed before the lists return
  return ideal;
}

}  // namespace

IdealNetworks ComputeIdealNetworks(const Dataset& dataset, int network_size,
                                   SimilarityMetric metric) {
  std::vector<std::span<const ActionKey>> actions;
  actions.reserve(dataset.NumUsers());
  for (UserId u = 0; u < static_cast<UserId>(dataset.NumUsers()); ++u) {
    actions.push_back(dataset.ActionsOf(u));
  }
  return ComputeFromActions(actions, network_size, metric);
}

IdealNetworks ComputeIdealNetworks(const ProfileStore& store, int network_size,
                                   SimilarityMetric metric) {
  std::vector<std::span<const ActionKey>> actions;
  actions.reserve(store.NumUsers());
  for (UserId u = 0; u < static_cast<UserId>(store.NumUsers()); ++u) {
    actions.push_back(store.Get(u)->actions());
  }
  return ComputeFromActions(actions, network_size, metric);
}

IdealNetworks ComputeIdealNetworksSampled(const ProfileStore& store,
                                          int network_size,
                                          std::size_t sample_size,
                                          std::uint64_t seed,
                                          SimilarityMetric metric) {
  const std::size_t num_users = store.NumUsers();
  if (sample_size >= num_users) {
    return ComputeIdealNetworks(store, network_size, metric);
  }

  // Deterministic sample of query users, independent of the system's rng
  // streams.
  std::vector<UserId> all(num_users);
  for (std::size_t u = 0; u < num_users; ++u) all[u] = static_cast<UserId>(u);
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x1d8e4e27c47d124fULL);
  std::vector<UserId> sample = rng.SampleWithoutReplacement(all, sample_size);
  std::sort(sample.begin(), sample.end());
  all.clear();
  all.shrink_to_fit();

  // Score each sampled user against every other user with the batched
  // block-bitmap kernel — O(sample * users) pair scores, no inverted index.
  IdealNetworks ideal(num_users);
  std::vector<const Profile*> others;
  others.reserve(num_users - 1);
  std::vector<PairSimilarity> sims;
  std::vector<IdealEntry> scored;
  for (UserId u : sample) {
    others.clear();
    for (UserId v = 0; v < static_cast<UserId>(num_users); ++v) {
      if (v != u) others.push_back(store.Get(v).get());
    }
    sims.assign(others.size(), PairSimilarity{});
    KernelPairSimilarityBatch(*store.Get(u), others.data(), others.size(),
                              sims.data());
    const std::size_t len_u = store.Get(u)->Length();
    scored.clear();
    for (std::size_t k = 0; k < others.size(); ++k) {
      const std::uint64_t score = SimilarityScore(
          metric, sims[k].score, len_u, others[k]->Length());
      if (score > 0) scored.emplace_back(others[k]->owner(), score);
    }
    AssignTopS(&scored, static_cast<std::size_t>(network_size), &ideal[u]);
  }
  return ideal;
}

std::uint64_t IdealNetworkBytes(const IdealNetworks& ideal) {
  std::uint64_t bytes = ideal.capacity() * sizeof(IdealList);
  for (const IdealList& list : ideal) {
    bytes += list.capacity() * sizeof(IdealEntry);
  }
  return bytes;
}

}  // namespace p3q
