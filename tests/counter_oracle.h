// Reference folds for the counter records: MergeFrom, Since and Precedes as
// they were written field by field before each record listed its fields
// once (common/counters.h). tests/counter_record_test.cc runs seeded random
// pairs through both and requires the same counters.
#ifndef P3Q_TESTS_COUNTER_ORACLE_H_
#define P3Q_TESTS_COUNTER_ORACLE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "obs/profiler.h"
#include "sim/metrics.h"

namespace p3q::oracle {

/// Metrics' counters by message type (Metrics keeps its own private).
using MetricsCounters =
    std::array<MessageStats, static_cast<int>(MessageType::kCount)>;

inline MetricsCounters CountersOf(const Metrics& metrics) {
  MetricsCounters counters;
  for (int t = 0; t < static_cast<int>(MessageType::kCount); ++t) {
    counters[t] = metrics.Of(static_cast<MessageType>(t));
  }
  return counters;
}

inline MetricsCounters Since(const MetricsCounters& now,
                             const MetricsCounters& earlier) {
  MetricsCounters delta;
  for (int i = 0; i < static_cast<int>(MessageType::kCount); ++i) {
    delta[i] = MessageStats{MonotoneDelta(now[i].messages, earlier[i].messages),
                            MonotoneDelta(now[i].bytes, earlier[i].bytes)};
  }
  return delta;
}

inline void MergeFrom(MetricsCounters& into, const MetricsCounters& other) {
  for (int i = 0; i < static_cast<int>(MessageType::kCount); ++i) {
    into[i].messages += other[i].messages;
    into[i].bytes += other[i].bytes;
  }
}

inline bool Precedes(const MetricsCounters& earlier,
                     const MetricsCounters& now) {
  for (int t = 0; t < static_cast<int>(MessageType::kCount); ++t) {
    const MessageStats& e = earlier[t];
    const MessageStats& n = now[t];
    if (e.messages > n.messages || e.bytes > n.bytes) return false;
  }
  return true;
}

template <std::size_t N>
bool ArrayPrecedes(const std::array<std::uint64_t, N>& earlier,
                   const std::array<std::uint64_t, N>& now) {
  for (std::size_t i = 0; i < N; ++i) {
    if (earlier[i] > now[i]) return false;
  }
  return true;
}

inline void MergeFrom(DeliveryStats& into, const DeliveryStats& other) {
  into.enqueued += other.enqueued;
  into.dropped += other.dropped;
  into.delivered += other.delivered;
  into.stale_dropped += other.stale_dropped;
  into.max_in_flight = into.max_in_flight > other.max_in_flight
                           ? into.max_in_flight
                           : other.max_in_flight;
  for (std::size_t i = 0; i < kDeliveryLagBuckets; ++i) {
    into.lag_histogram[i] += other.lag_histogram[i];
  }
}

inline DeliveryStats Since(const DeliveryStats& now,
                           const DeliveryStats& earlier) {
  DeliveryStats delta;
  delta.enqueued = MonotoneDelta(now.enqueued, earlier.enqueued);
  delta.dropped = MonotoneDelta(now.dropped, earlier.dropped);
  delta.delivered = MonotoneDelta(now.delivered, earlier.delivered);
  delta.stale_dropped = MonotoneDelta(now.stale_dropped, earlier.stale_dropped);
  delta.max_in_flight = now.max_in_flight;
  for (std::size_t i = 0; i < kDeliveryLagBuckets; ++i) {
    delta.lag_histogram[i] =
        MonotoneDelta(now.lag_histogram[i], earlier.lag_histogram[i]);
  }
  return delta;
}

inline bool Precedes(const DeliveryStats& earlier, const DeliveryStats& now) {
  return earlier.enqueued <= now.enqueued && earlier.dropped <= now.dropped &&
         earlier.delivered <= now.delivered &&
         earlier.stale_dropped <= now.stale_dropped &&
         ArrayPrecedes(earlier.lag_histogram, now.lag_histogram);
}

inline void MergeFrom(QueryLatencyStats& into,
                      const QueryLatencyStats& other) {
  into.issued += other.issued;
  into.completed += other.completed;
  into.completed_within_slo += other.completed_within_slo;
  into.first_results += other.first_results;
  into.abandoned += other.abandoned;
  for (std::size_t i = 0; i < kQueryLatencyBuckets; ++i) {
    into.completion_histogram[i] += other.completion_histogram[i];
    into.first_result_histogram[i] += other.first_result_histogram[i];
  }
}

inline QueryLatencyStats Since(const QueryLatencyStats& now,
                               const QueryLatencyStats& earlier) {
  QueryLatencyStats delta;
  delta.issued = MonotoneDelta(now.issued, earlier.issued);
  delta.completed = MonotoneDelta(now.completed, earlier.completed);
  delta.completed_within_slo =
      MonotoneDelta(now.completed_within_slo, earlier.completed_within_slo);
  delta.first_results = MonotoneDelta(now.first_results, earlier.first_results);
  delta.abandoned = MonotoneDelta(now.abandoned, earlier.abandoned);
  for (std::size_t i = 0; i < kQueryLatencyBuckets; ++i) {
    delta.completion_histogram[i] = MonotoneDelta(
        now.completion_histogram[i], earlier.completion_histogram[i]);
    delta.first_result_histogram[i] = MonotoneDelta(
        now.first_result_histogram[i], earlier.first_result_histogram[i]);
  }
  return delta;
}

inline bool Precedes(const QueryLatencyStats& earlier,
                     const QueryLatencyStats& now) {
  return earlier.issued <= now.issued && earlier.completed <= now.completed &&
         earlier.completed_within_slo <= now.completed_within_slo &&
         earlier.first_results <= now.first_results &&
         earlier.abandoned <= now.abandoned &&
         ArrayPrecedes(earlier.completion_histogram,
                       now.completion_histogram) &&
         ArrayPrecedes(earlier.first_result_histogram,
                       now.first_result_histogram);
}

/// The profiler's integer counters subtracted with plain `-`; on ordered
/// snapshots that equals MonotoneDelta.
inline void MergeFrom(PhaseBreakdown& into, const PhaseBreakdown& other) {
  into.cycles += other.cycles;
  into.plan_seconds += other.plan_seconds;
  into.barrier_seconds += other.barrier_seconds;
  into.drain_seconds += other.drain_seconds;
  into.drain_take_seconds += other.drain_take_seconds;
  into.drain_teardown_seconds += other.drain_teardown_seconds;
  into.drain_levels += other.drain_levels;
  into.drain_pooled_messages += other.drain_pooled_messages;
  into.drain_inline_messages += other.drain_inline_messages;
  into.drain_wait_seconds += other.drain_wait_seconds;
  into.closeout_pooled_items += other.closeout_pooled_items;
  into.closeout_inline_items += other.closeout_inline_items;
  into.end_cycle_seconds += other.end_cycle_seconds;
  into.shard_plan_max_seconds += other.shard_plan_max_seconds;
  into.shard_plan_sum_seconds += other.shard_plan_sum_seconds;
  into.shards_per_cycle =
      std::max(into.shards_per_cycle, other.shards_per_cycle);
  into.max_imbalance = std::max(into.max_imbalance, other.max_imbalance);
  for (std::size_t i = 0; i < kImbalanceBuckets; ++i) {
    into.imbalance_histogram[i] += other.imbalance_histogram[i];
  }
}

inline PhaseBreakdown Since(const PhaseBreakdown& now,
                            const PhaseBreakdown& earlier) {
  PhaseBreakdown delta;
  delta.cycles = now.cycles - earlier.cycles;
  delta.plan_seconds = now.plan_seconds - earlier.plan_seconds;
  delta.barrier_seconds = now.barrier_seconds - earlier.barrier_seconds;
  delta.drain_seconds = now.drain_seconds - earlier.drain_seconds;
  delta.drain_take_seconds =
      now.drain_take_seconds - earlier.drain_take_seconds;
  delta.drain_teardown_seconds =
      now.drain_teardown_seconds - earlier.drain_teardown_seconds;
  delta.drain_levels = now.drain_levels - earlier.drain_levels;
  delta.drain_pooled_messages =
      now.drain_pooled_messages - earlier.drain_pooled_messages;
  delta.drain_inline_messages =
      now.drain_inline_messages - earlier.drain_inline_messages;
  delta.drain_wait_seconds =
      now.drain_wait_seconds - earlier.drain_wait_seconds;
  delta.closeout_pooled_items =
      now.closeout_pooled_items - earlier.closeout_pooled_items;
  delta.closeout_inline_items =
      now.closeout_inline_items - earlier.closeout_inline_items;
  delta.end_cycle_seconds = now.end_cycle_seconds - earlier.end_cycle_seconds;
  delta.shard_plan_max_seconds =
      now.shard_plan_max_seconds - earlier.shard_plan_max_seconds;
  delta.shard_plan_sum_seconds =
      now.shard_plan_sum_seconds - earlier.shard_plan_sum_seconds;
  delta.shards_per_cycle = now.shards_per_cycle;
  delta.max_imbalance = now.max_imbalance;
  for (std::size_t i = 0; i < kImbalanceBuckets; ++i) {
    delta.imbalance_histogram[i] =
        now.imbalance_histogram[i] - earlier.imbalance_histogram[i];
  }
  return delta;
}

}  // namespace p3q::oracle

#endif  // P3Q_TESTS_COUNTER_ORACLE_H_
