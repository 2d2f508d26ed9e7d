// Simulated peer-to-peer network: membership, liveness and traffic.
//
// The cycle-driven engine calls into protocol code, which "sends messages"
// by invoking methods on peer nodes through this class: the network checks
// the peer is online and records the message's wire cost. Churn (Section
// 3.4.2) is modelled by flipping users offline; an offline user neither
// initiates nor answers gossip, but replicas of her profile held by others
// keep serving queries.
#ifndef P3Q_SIM_NETWORK_H_
#define P3Q_SIM_NETWORK_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "sim/engine.h"
#include "sim/metrics.h"

namespace p3q {

/// Liveness registry plus traffic accounting for a population of users.
class Network {
 public:
  explicit Network(std::size_t num_users);

  std::size_t NumUsers() const { return online_.size(); }

  /// True when the user answers messages.
  bool IsOnline(UserId user) const { return online_[user]; }

  /// Marks a user online/offline.
  void SetOnline(UserId user, bool online);

  /// Number of currently-online users.
  std::size_t NumOnline() const { return num_online_; }

  /// Ids of all currently-online users, ascending.
  std::vector<UserId> OnlineUsers() const;

  /// Ids of all currently-offline users, ascending.
  std::vector<UserId> OfflineUsers() const;

  /// Takes a uniformly random `fraction` of currently-online users offline
  /// simultaneously (the paper's massive-departure scenario). `fraction` is
  /// clamped to [0, 1]. Returns the users that left.
  std::vector<UserId> FailRandomFraction(double fraction, Rng* rng);

  /// Traffic mailbox `slot`. The plan phase records into its shard's
  /// mailbox (one shard is planned by a single thread) and a drain on the
  /// workers into its worker's (CommitContext::worker, always below
  /// kEngineShards), so both record race-free; MergeShardTraffic folds the
  /// mailboxes into the global counters after the phase.
  Metrics& ShardTraffic(std::size_t slot) { return shard_traffic_[slot]; }

  /// Folds (and zeroes) every mailbox into metrics(), in slot order — the
  /// deterministic merge step of the plan/commit contract.
  void MergeShardTraffic();

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

 private:
  std::vector<char> online_;
  std::size_t num_online_;
  Metrics metrics_;
  std::vector<Metrics> shard_traffic_;  ///< one mailbox per engine shard
};

}  // namespace p3q

#endif  // P3Q_SIM_NETWORK_H_
