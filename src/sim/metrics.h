// Message and bandwidth accounting for the simulator.
//
// Every message the protocols exchange is recorded here with its wire size
// (computed from the paper's cost model in common/types.h). The bandwidth
// figures of Section 3.3 — lazy-mode maintenance traffic, per-query traffic
// split by message kind, messages per query — are all derived from these
// counters. Each counter record here lists its fields once, in Counters()
// (common/counters.h): a new counter is a member and one line in that list.
#ifndef P3Q_SIM_METRICS_H_
#define P3Q_SIM_METRICS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <tuple>

#include "common/counters.h"

namespace p3q {

/// Every kind of message P3Q puts on the wire.
enum class MessageType : int {
  kRandomViewGossip = 0,  ///< bottom layer: r profile digests each way
  kLazyDigestProposal,    ///< top layer step 1: proposed profile digests
  kLazyCommonItems,       ///< top layer step 2: actions on common items
  kLazyFullProfile,       ///< top layer step 3: remaining profile actions
  kDirectProfileFetch,    ///< random-view probe: full profile from owner
  kEagerQueryForward,     ///< eager gossip: query + forwarded remaining list
  kEagerQueryReturn,      ///< eager gossip reply: returned remaining list
  kPartialResult,         ///< partial result list sent to the querier
  kCount
};

/// Human-readable name of a message type.
const char* MessageTypeName(MessageType type);

/// Count/byte totals for one message type.
struct MessageStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;

  static constexpr auto Counters() {
    return std::tuple{Sum(&MessageStats::messages),
                      Sum(&MessageStats::bytes)};
  }

  void Add(std::uint64_t b) {
    ++messages;
    bytes += b;
  }
};

/// Aggregated traffic counters, indexable by MessageType.
class Metrics {
 public:
  static constexpr auto Counters() { return std::tuple{Sum(&Metrics::stats_)}; }

  /// Records one message of `type` carrying `bytes` payload bytes.
  void Record(MessageType type, std::uint64_t bytes) {
    stats_[static_cast<int>(type)].Add(bytes);
  }

  const MessageStats& Of(MessageType type) const {
    return stats_[static_cast<int>(type)];
  }

  /// Sum of bytes over all message types.
  std::uint64_t TotalBytes() const;

  /// Sum of message counts over all message types.
  std::uint64_t TotalMessages() const;

  /// Copy of the current counters (use to compute per-phase deltas).
  Metrics Snapshot() const { return *this; }

  /// Per-type difference (this - earlier).
  Metrics Since(const Metrics& earlier) const {
    return CountersSince(*this, earlier);
  }

  /// Adds every counter of `other` into this (per-shard mailbox folding).
  void MergeFrom(const Metrics& other) { MergeCounters(*this, other); }

  /// True when every counter is zero.
  bool Empty() const { return TotalMessages() == 0 && TotalBytes() == 0; }

  /// Zeroes every counter.
  void Reset();

 private:
  std::array<MessageStats, static_cast<int>(MessageType::kCount)> stats_{};
};

/// Delivery-lag histogram resolution: lags of 0..kDeliveryLagBuckets-2
/// cycles are counted exactly; the last bucket absorbs everything longer.
inline constexpr std::size_t kDeliveryLagBuckets = 33;

/// A percentile read off a clamped histogram. The final bucket aggregates
/// every observation at or past the clamp, so a percentile landing there is
/// only a LOWER bound on the true value — `lower_bound` flags that instead
/// of letting the clamp masquerade as an exact measurement.
struct PercentileValue {
  double value = -1.0;       ///< -1 when nothing was recorded
  bool lower_bound = false;  ///< true: the true percentile is >= value
};

/// Counters of the asynchronous delivery layer (sim/delivery.h): how many
/// planned effects went onto the wire, how long they stayed in flight, and
/// how many never arrived. All counters are deterministic in (seed, latency
/// model) — they never depend on the thread count.
struct DeliveryStats {
  std::uint64_t enqueued = 0;       ///< messages accepted onto the wire
  std::uint64_t dropped = 0;        ///< lost in flight (latency model)
  std::uint64_t delivered = 0;      ///< committed at the receiver
  std::uint64_t stale_dropped = 0;  ///< arrived but obsolete (superseded)
  std::uint64_t max_in_flight = 0;  ///< peak queue depth after a plan barrier
  /// delivered messages by lag = commit cycle - send cycle.
  std::array<std::uint64_t, kDeliveryLagBuckets> lag_histogram{};

  static constexpr auto Counters() {
    using D = DeliveryStats;
    return std::tuple{Sum(&D::enqueued), Sum(&D::dropped), Sum(&D::delivered),
                      Sum(&D::stale_dropped), Peak(&D::max_in_flight),
                      Sum(&D::lag_histogram)};
  }

  void RecordDelivery(std::uint64_t lag) {
    ++delivered;
    ++lag_histogram[lag < kDeliveryLagBuckets ? lag : kDeliveryLagBuckets - 1];
  }

  /// Smallest lag L such that at least `p` (in [0, 1]) of all delivered
  /// messages had lag <= L; value -1 when nothing was delivered. When the
  /// percentile lands in the final clamped bucket the true lag is only
  /// known to be >= kDeliveryLagBuckets - 1, and `lower_bound` is set.
  PercentileValue LagPercentileBound(double p) const;

  /// Value-only shorthand for LagPercentileBound (the clamp flag dropped).
  double LagPercentile(double p) const { return LagPercentileBound(p).value; }

  /// Adds every counter of `other`; max_in_flight takes the maximum.
  void MergeFrom(const DeliveryStats& other) { MergeCounters(*this, other); }

  /// Per-counter difference (this - earlier) for phase deltas.
  /// max_in_flight keeps this side's running peak (peaks do not subtract).
  DeliveryStats Since(const DeliveryStats& earlier) const {
    return CountersSince(*this, earlier);
  }
};

/// Query-completion-latency histogram resolution: latencies of
/// 0..kQueryLatencyBuckets-2 cycles are counted exactly; the last bucket
/// absorbs everything longer (and reports as a flagged lower bound).
inline constexpr std::size_t kQueryLatencyBuckets = 65;

/// Per-query serving latencies of the open-loop workload layer
/// (serving/lifecycle.h): how many queries entered the system, how long
/// each took to produce its first remote result and to complete
/// (completion = the recall target reached, or the eager mode's NRA
/// finalization), and how many met the completion SLO. All counters are
/// deterministic in (seed, scenario, latency model) — like DeliveryStats
/// they never depend on the thread count. The same shape as DeliveryStats:
/// clamped histograms, percentile reads, MergeFrom/Since deltas.
struct QueryLatencyStats {
  std::uint64_t issued = 0;     ///< open-loop queries injected
  std::uint64_t completed = 0;  ///< reached the recall target / finalized
  std::uint64_t completed_within_slo = 0;  ///< completed within slo cycles
  std::uint64_t first_results = 0;  ///< received >= 1 remote partial result
  std::uint64_t abandoned = 0;      ///< still open when the run ended
  /// completed queries by latency = completion cycle - issue cycle.
  std::array<std::uint64_t, kQueryLatencyBuckets> completion_histogram{};
  /// first-result queries by latency = first-result cycle - issue cycle.
  std::array<std::uint64_t, kQueryLatencyBuckets> first_result_histogram{};

  static constexpr auto Counters() {
    using Q = QueryLatencyStats;
    return std::tuple{Sum(&Q::issued), Sum(&Q::completed),
                      Sum(&Q::completed_within_slo), Sum(&Q::first_results),
                      Sum(&Q::abandoned), Sum(&Q::completion_histogram),
                      Sum(&Q::first_result_histogram)};
  }

  void RecordCompletion(std::uint64_t latency, std::uint64_t slo_cycles) {
    ++completed;
    if (latency <= slo_cycles) ++completed_within_slo;
    ++completion_histogram[latency < kQueryLatencyBuckets
                               ? latency
                               : kQueryLatencyBuckets - 1];
  }

  void RecordFirstResult(std::uint64_t latency) {
    ++first_results;
    ++first_result_histogram[latency < kQueryLatencyBuckets
                                 ? latency
                                 : kQueryLatencyBuckets - 1];
  }

  /// Smallest completion latency L such that at least `p` of all completed
  /// queries finished within L cycles; value -1 when nothing completed.
  /// `lower_bound` is set when the read lands in the final clamped bucket.
  PercentileValue CompletionPercentile(double p) const;

  /// Same read over the first-result histogram.
  PercentileValue FirstResultPercentile(double p) const;

  /// True when no query was ever issued.
  bool Empty() const { return issued == 0; }

  /// Adds every counter of `other`.
  void MergeFrom(const QueryLatencyStats& other) {
    MergeCounters(*this, other);
  }

  /// Per-counter difference (this - earlier) for phase deltas.
  QueryLatencyStats Since(const QueryLatencyStats& earlier) const {
    return CountersSince(*this, earlier);
  }
};

}  // namespace p3q

#endif  // P3Q_SIM_METRICS_H_
