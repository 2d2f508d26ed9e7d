#include "profile/similarity.h"

#include <algorithm>
#include <cmath>

namespace p3q {

std::uint64_t SimilarityScore(SimilarityMetric metric, std::uint64_t common,
                              std::size_t a_length, std::size_t b_length) {
  if (common == 0) return 0;
  switch (metric) {
    case SimilarityMetric::kCommonActions:
      return common;
    case SimilarityMetric::kJaccard: {
      const double uni =
          static_cast<double>(a_length) + static_cast<double>(b_length) -
          static_cast<double>(common);
      return static_cast<std::uint64_t>(
          kSimilarityScale * static_cast<double>(common) / uni);
    }
    case SimilarityMetric::kCosine: {
      const double denom = std::sqrt(static_cast<double>(a_length) *
                                     static_cast<double>(b_length));
      return static_cast<std::uint64_t>(
          kSimilarityScale * static_cast<double>(common) / denom);
    }
    case SimilarityMetric::kOverlap: {
      const double denom = static_cast<double>(std::min(a_length, b_length));
      return static_cast<std::uint64_t>(
          kSimilarityScale * static_cast<double>(common) / denom);
    }
  }
  return common;
}

bool ParseSimilarityMetric(const std::string& text, SimilarityMetric* out) {
  if (text == "common" || text == "common_actions") {
    *out = SimilarityMetric::kCommonActions;
  } else if (text == "jaccard") {
    *out = SimilarityMetric::kJaccard;
  } else if (text == "cosine") {
    *out = SimilarityMetric::kCosine;
  } else if (text == "overlap") {
    *out = SimilarityMetric::kOverlap;
  } else {
    return false;
  }
  return true;
}

const char* SimilarityMetricName(SimilarityMetric metric) {
  switch (metric) {
    case SimilarityMetric::kCommonActions:
      return "common_actions";
    case SimilarityMetric::kJaccard:
      return "jaccard";
    case SimilarityMetric::kCosine:
      return "cosine";
    case SimilarityMetric::kOverlap:
      return "overlap";
  }
  return "unknown";
}

}  // namespace p3q
