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

PercentileValue QueryLatencyStats::CompletionPercentile(double p) const {
  return HistogramPercentile(completion_histogram.data(), kQueryLatencyBuckets,
                             completed, p);
}

PercentileValue QueryLatencyStats::FirstResultPercentile(double p) const {
  return HistogramPercentile(first_result_histogram.data(),
                             kQueryLatencyBuckets, first_results, p);
}

}  // namespace p3q
