// One P3Q user: her profile, personal network, random view and query tasks.
#ifndef P3Q_CORE_P3Q_NODE_H_
#define P3Q_CORE_P3Q_NODE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/personal_network.h"
#include "core/probe_memo.h"
#include "gossip/peer_sampling.h"
#include "profile/profile.h"

namespace p3q {

/// The share of a query a node is responsible for: the query's tags and the
/// remaining list portion assigned to this node (Algorithm 3).
struct EagerTask {
  std::uint64_t query_id = 0;
  UserId querier = kInvalidUser;
  std::vector<TagId> tags;          // sorted ascending
  std::vector<UserId> remaining;    // profiles still to locate

  // Delivery-layer bookkeeping (owner-private: written only by the owner's
  // plan pass and by sequential commits, so it is race-free under the
  // engine's one-shard-one-thread contract). While a gossip of this task is
  // in flight the task does not gossip again; once `in_flight_until`
  // passes, the owner assumes the message lost (or hopelessly late), bumps
  // `generation` to supersede it, and re-issues from the current list.
  // `epoch` is unique per task *incarnation* (assigned by the protocol at
  // creation): a task erased and later recreated on the same node gets a
  // fresh epoch, so a gossip of the dead incarnation can never match it.
  std::uint64_t epoch = 0;
  std::uint32_t generation = 0;
  bool in_flight = false;
  std::uint64_t in_flight_until = 0;  ///< first cycle a re-issue may happen
};

/// Per-user protocol state.
class P3QNode {
 public:
  /// self: user id; profile: current own profile snapshot; storage_capacity:
  /// this user's c (from the storage distribution), which her personal
  /// network keeps; rng: private stream.
  P3QNode(UserId self, ProfilePtr profile, const P3QConfig& config,
          int storage_capacity, Rng rng);

  UserId id() const { return self_; }

  const ProfilePtr& profile() const { return profile_; }
  /// Installs a new own-profile snapshot (the user tagged new items).
  void SetOwnProfile(ProfilePtr profile) { profile_ = std::move(profile); }

  /// Fresh descriptor of this node's own profile.
  DigestInfo SelfDigest() const { return DigestInfo{self_, profile_}; }

  PersonalNetwork& network() { return network_; }
  const PersonalNetwork& network() const { return network_; }

  RandomView& random_view() { return random_view_; }
  const RandomView& random_view() const { return random_view_; }

  Rng& rng() { return rng_; }
  const Rng& rng() const { return rng_; }

  /// The profile of `user` if this node can serve it: her own profile when
  /// user == self, else a stored replica. Null otherwise. This is what the
  /// eager mode's GoodProfiles check uses (Section 2.3: "either her own
  /// profile or those stored in her personal network"). Borrowed: valid
  /// until this node's profile or network changes.
  const ProfilePtr& FindUsableProfile(UserId user) const;

  /// True when `version` is newer than every version of `user` probed
  /// before (or she was never probed), recording it: memoizes random-view
  /// probing so a digest that already triggered a probe is not re-probed
  /// every cycle (behaviourally equivalent to the paper's per-cycle
  /// re-scoring, since a re-probe of an unchanged digest cannot change the
  /// outcome). Older and equal versions answer false.
  bool ShouldProbe(UserId user, std::uint32_t version) {
    return probed_versions_.ShouldProbe(user, version);
  }

  /// Active query shares keyed by query id.
  std::unordered_map<std::uint64_t, EagerTask>& tasks() { return tasks_; }
  const std::unordered_map<std::uint64_t, EagerTask>& tasks() const {
    return tasks_;
  }

  /// Probe memo of ShouldProbe, user -> last probed version (checkpoint
  /// access and memory accounting).
  ProbeMemo& probed_versions() { return probed_versions_; }
  const ProbeMemo& probed_versions() const { return probed_versions_; }

 private:
  UserId self_;
  ProfilePtr profile_;
  PersonalNetwork network_;
  RandomView random_view_;
  Rng rng_;
  ProbeMemo probed_versions_;
  std::unordered_map<std::uint64_t, EagerTask> tasks_;
};

}  // namespace p3q

#endif  // P3Q_CORE_P3Q_NODE_H_
