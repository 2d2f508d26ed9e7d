// P3Q protocol configuration (the parameters of Sections 2 and 3.1.2).
#ifndef P3Q_CORE_CONFIG_H_
#define P3Q_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/types.h"
#include "profile/similarity.h"

namespace p3q {

/// Attempts to find an online gossip partner before skipping a cycle.
inline constexpr int kOfflineRetry = 3;
/// Cycles an eager task waits for an in-flight gossip's reply before it
/// assumes the message lost and re-issues (superseding the old one). It
/// exceeds the built-in scenarios' typical delays, so a hop is not re-sent
/// while still in flight.
inline constexpr int kEagerRetryCycles = 4;
/// Lazy-mode period in seconds (paper: 60 s) — used only to convert cycle
/// counts into wall-clock/bandwidth figures.
inline constexpr double kLazyPeriodSeconds = 60.0;
/// Eager-mode period in seconds (paper: 5 s).
inline constexpr double kEagerPeriodSeconds = 5.0;

/// All tunables of the P3Q protocol. Defaults follow the paper's evaluation
/// (scaled values are chosen by the caller; the paper runs s=1000, r=10,
/// 50-digest fanout, α=0.5, top-10 on 10,000 users).
struct P3QConfig {
  /// s — personal network size (entries, ids+digests only).
  int network_size = 100;
  /// Default c — stored profiles per user; per-user overrides come from a
  /// StorageDistribution assignment.
  int stored_profiles = 10;
  /// r — random view size.
  int random_view_size = 10;
  /// Maximum profile digests proposed per top-layer gossip ("if more than 50
  /// profiles are stored, 50 random ones are exchanged").
  int gossip_profile_fanout = 50;
  /// α — fraction of the pruned remaining list returned to the gossip
  /// initiator in eager mode (Theorems 2.1–2.2: 0.5 is optimal).
  double alpha = 0.5;
  /// k of top-k.
  int top_k = 10;
  /// Bloom digest size in bits (paper: 20 Kbit).
  std::size_t digest_bits = kDefaultDigestBits;
  /// Per-node per-cycle cap on planned eager task gossips; 0 = unlimited
  /// (the paper's model: every task gossips once per cycle). A finite
  /// budget makes per-node query capacity real — tasks beyond the budget
  /// wait for a later cycle — so open-loop saturation sweeps can push the
  /// system past its service rate and watch latency percentiles grow.
  int eager_gossip_budget = 0;
  /// Distance between users ("application-specific; P3Q is independent of
  /// the way similarity is defined" — Section 2.1). Default: the paper's
  /// common-tagging-action count.
  SimilarityMetric similarity = SimilarityMetric::kCommonActions;
  /// When false, the bottom gossip layer (random peer sampling + digest
  /// probing) is disabled — the ablation of the paper's claim that "using
  /// solely personal networks could lead to a partition".
  bool enable_bottom_layer = true;

  /// Validates parameter ranges; returns an empty string when valid, else a
  /// human-readable description of the first problem.
  std::string Validate() const;
};

}  // namespace p3q

#endif  // P3Q_CORE_CONFIG_H_
