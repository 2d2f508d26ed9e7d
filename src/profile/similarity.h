// Pluggable similarity metrics.
//
// The paper scores acquaintances by the number of common tagging actions but
// notes "this distance is application-specific and P3Q is independent of the
// way similarity is defined". This module provides the common alternatives;
// P3QConfig::similarity selects which one the protocol uses. Fractional
// metrics are mapped to integers (x 1e6) so they flow through the same
// score-ordered machinery.
#ifndef P3Q_PROFILE_SIMILARITY_H_
#define P3Q_PROFILE_SIMILARITY_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace p3q {

/// Similarity definitions usable as the personal-network distance.
enum class SimilarityMetric {
  /// |P(a) ∩ P(b)| — the paper's default.
  kCommonActions,
  /// |∩| / |∪| over tagging actions, scaled by 1e6.
  kJaccard,
  /// |∩| / sqrt(|P(a)| * |P(b)|) over tagging actions (set cosine), x 1e6.
  kCosine,
  /// |∩| / min(|P(a)|, |P(b)|) (overlap coefficient), x 1e6.
  kOverlap,
};

/// Scale factor applied to the fractional metrics.
inline constexpr std::uint64_t kSimilarityScale = 1'000'000;

/// Maps a pair's intersection statistics to the chosen metric. `a_length`
/// and `b_length` are the two profiles' action counts.
std::uint64_t SimilarityScore(SimilarityMetric metric, std::uint64_t common,
                              std::size_t a_length, std::size_t b_length);

/// Human-readable metric name.
const char* SimilarityMetricName(SimilarityMetric metric);

/// Strictly parses a metric name: "common" (alias "common_actions"),
/// "jaccard", "cosine" or "overlap". Returns false — leaving *out untouched
/// — on anything else, including empty strings, prefixes and case variants.
bool ParseSimilarityMetric(const std::string& text, SimilarityMetric* out);

}  // namespace p3q

#endif  // P3Q_PROFILE_SIMILARITY_H_
