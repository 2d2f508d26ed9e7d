#include "sim/metrics.h"

namespace p3q {

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kRandomViewGossip:
      return "random_view_gossip";
    case MessageType::kLazyDigestProposal:
      return "lazy_digest_proposal";
    case MessageType::kLazyCommonItems:
      return "lazy_common_items";
    case MessageType::kLazyFullProfile:
      return "lazy_full_profile";
    case MessageType::kDirectProfileFetch:
      return "direct_profile_fetch";
    case MessageType::kEagerQueryForward:
      return "eager_query_forward";
    case MessageType::kEagerQueryReturn:
      return "eager_query_return";
    case MessageType::kPartialResult:
      return "partial_result";
    case MessageType::kCount:
      break;
  }
  return "unknown";
}

std::uint64_t Metrics::TotalBytes() const {
  std::uint64_t total = 0;
  for (const auto& s : stats_) total += s.bytes;
  return total;
}

std::uint64_t Metrics::TotalMessages() const {
  std::uint64_t total = 0;
  for (const auto& s : stats_) total += s.messages;
  return total;
}

Metrics Metrics::Since(const Metrics& earlier) const {
  Metrics delta;
  for (int i = 0; i < static_cast<int>(MessageType::kCount); ++i) {
    delta.stats_[i] = stats_[i] - earlier.stats_[i];
  }
  return delta;
}

void Metrics::MergeFrom(const Metrics& other) {
  for (int i = 0; i < static_cast<int>(MessageType::kCount); ++i) {
    stats_[i].messages += other.stats_[i].messages;
    stats_[i].bytes += other.stats_[i].bytes;
  }
}

void Metrics::Reset() {
  for (auto& s : stats_) s = MessageStats{};
}

namespace {

/// Percentile read over a clamped histogram of `total` observations. A read
/// landing in the final bucket is a lower bound, not an exact value: that
/// bucket aggregates everything at or past the clamp.
PercentileValue HistogramPercentile(const std::uint64_t* histogram,
                                    std::size_t buckets, std::uint64_t total,
                                    double p) {
  if (total == 0) return PercentileValue{-1.0, false};
  const double target = p * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i + 1 < buckets; ++i) {
    cumulative += histogram[i];
    if (static_cast<double>(cumulative) >= target) {
      return PercentileValue{static_cast<double>(i), false};
    }
  }
  return PercentileValue{static_cast<double>(buckets - 1), true};
}

}  // namespace

PercentileValue DeliveryStats::LagPercentileBound(double p) const {
  return HistogramPercentile(lag_histogram.data(), kDeliveryLagBuckets,
                             delivered, p);
}

void DeliveryStats::MergeFrom(const DeliveryStats& other) {
  enqueued += other.enqueued;
  dropped += other.dropped;
  delivered += other.delivered;
  stale_dropped += other.stale_dropped;
  max_in_flight = max_in_flight > other.max_in_flight ? max_in_flight
                                                      : other.max_in_flight;
  for (std::size_t i = 0; i < kDeliveryLagBuckets; ++i) {
    lag_histogram[i] += other.lag_histogram[i];
  }
}

DeliveryStats DeliveryStats::Since(const DeliveryStats& earlier) const {
  DeliveryStats delta;
  delta.enqueued = MonotoneDelta(enqueued, earlier.enqueued);
  delta.dropped = MonotoneDelta(dropped, earlier.dropped);
  delta.delivered = MonotoneDelta(delivered, earlier.delivered);
  delta.stale_dropped = MonotoneDelta(stale_dropped, earlier.stale_dropped);
  delta.max_in_flight = max_in_flight;
  for (std::size_t i = 0; i < kDeliveryLagBuckets; ++i) {
    delta.lag_histogram[i] =
        MonotoneDelta(lag_histogram[i], earlier.lag_histogram[i]);
  }
  return delta;
}

PercentileValue QueryLatencyStats::CompletionPercentile(double p) const {
  return HistogramPercentile(completion_histogram.data(), kQueryLatencyBuckets,
                             completed, p);
}

PercentileValue QueryLatencyStats::FirstResultPercentile(double p) const {
  return HistogramPercentile(first_result_histogram.data(),
                             kQueryLatencyBuckets, first_results, p);
}

void QueryLatencyStats::MergeFrom(const QueryLatencyStats& other) {
  issued += other.issued;
  completed += other.completed;
  completed_within_slo += other.completed_within_slo;
  first_results += other.first_results;
  abandoned += other.abandoned;
  for (std::size_t i = 0; i < kQueryLatencyBuckets; ++i) {
    completion_histogram[i] += other.completion_histogram[i];
    first_result_histogram[i] += other.first_result_histogram[i];
  }
}

QueryLatencyStats QueryLatencyStats::Since(
    const QueryLatencyStats& earlier) const {
  QueryLatencyStats delta;
  delta.issued = MonotoneDelta(issued, earlier.issued);
  delta.completed = MonotoneDelta(completed, earlier.completed);
  delta.completed_within_slo =
      MonotoneDelta(completed_within_slo, earlier.completed_within_slo);
  delta.first_results = MonotoneDelta(first_results, earlier.first_results);
  delta.abandoned = MonotoneDelta(abandoned, earlier.abandoned);
  for (std::size_t i = 0; i < kQueryLatencyBuckets; ++i) {
    delta.completion_histogram[i] = MonotoneDelta(
        completion_histogram[i], earlier.completion_histogram[i]);
    delta.first_result_histogram[i] = MonotoneDelta(
        first_result_histogram[i], earlier.first_result_histogram[i]);
  }
  return delta;
}

bool Precedes(const Metrics& earlier, const Metrics& now) {
  for (int t = 0; t < static_cast<int>(MessageType::kCount); ++t) {
    const MessageStats& e = earlier.Of(static_cast<MessageType>(t));
    const MessageStats& n = now.Of(static_cast<MessageType>(t));
    if (e.messages > n.messages || e.bytes > n.bytes) return false;
  }
  return true;
}

bool Precedes(const DeliveryStats& earlier, const DeliveryStats& now) {
  return earlier.enqueued <= now.enqueued && earlier.dropped <= now.dropped &&
         earlier.delivered <= now.delivered &&
         earlier.stale_dropped <= now.stale_dropped &&
         Precedes(earlier.lag_histogram, now.lag_histogram);
}

bool Precedes(const QueryLatencyStats& earlier, const QueryLatencyStats& now) {
  return earlier.issued <= now.issued && earlier.completed <= now.completed &&
         earlier.completed_within_slo <= now.completed_within_slo &&
         earlier.first_results <= now.first_results &&
         earlier.abandoned <= now.abandoned &&
         Precedes(earlier.completion_histogram, now.completion_histogram) &&
         Precedes(earlier.first_result_histogram,
                  now.first_result_histogram);
}

}  // namespace p3q
