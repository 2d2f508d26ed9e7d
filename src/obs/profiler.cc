#include "obs/profiler.h"

#include <algorithm>
#include <functional>
#include <string>
#include <tuple>
#include <type_traits>

#include "common/parse.h"

namespace p3q {

double PhaseBreakdown::MeanImbalance() const {
  if (cycles == 0 || shards_per_cycle == 0) return 0.0;
  // Both numerator and denominator are per-cycle means, so the cycle count
  // cancels: aggregate max/mean = sum-of-maxes * shards / sum-of-all-shards.
  if (shard_plan_sum_seconds <= 0.0) return 0.0;
  return shard_plan_max_seconds * static_cast<double>(shards_per_cycle) /
         shard_plan_sum_seconds;
}

void PhaseBreakdown::AddCycle(double plan, double barrier, double drain,
                              double end_cycle, double shard_max,
                              double shard_sum, std::uint64_t active_shards) {
  ++cycles;
  plan_seconds += plan;
  barrier_seconds += barrier;
  drain_seconds += drain;
  end_cycle_seconds += end_cycle;
  shard_plan_max_seconds += shard_max;
  shard_plan_sum_seconds += shard_sum;
  shards_per_cycle = std::max(shards_per_cycle, active_shards);
  if (active_shards > 0 && shard_sum > 0.0) {
    const double mean = shard_sum / static_cast<double>(active_shards);
    const double ratio = mean > 0.0 ? shard_max / mean : 1.0;
    max_imbalance = std::max(max_imbalance, ratio);
    const double offset = (ratio - 1.0) * 4.0;
    std::size_t bucket =
        offset <= 0.0 ? 0 : static_cast<std::size_t>(offset);
    bucket = std::min(bucket, kImbalanceBuckets - 1);
    ++imbalance_histogram[bucket];
  }
}

std::string PhaseBreakdownToJson(const PhaseBreakdown& breakdown) {
  std::string out;
  const auto add = [&](const auto& entry) {
    out += (out.empty() ? "{\"" : ", \"") + std::string(entry.key) + "\": ";
    const auto value = std::invoke(entry.member, breakdown);
    if constexpr (std::is_floating_point_v<decltype(value)>) {
      out += FormatFixed(value, entry.decimals);
    } else if constexpr (std::is_integral_v<decltype(value)>) {
      out += std::to_string(value);
    } else {
      for (std::size_t i = 0; i < value.size(); ++i) {
        out += (i == 0 ? "[" : ", ") + std::to_string(value[i]);
      }
      out += "]";
    }
  };
  std::apply([&](const auto&... entries) { (add(entries), ...); },
             PhaseBreakdown::Counters());
  return out + "}";
}

std::string PhaseProfilerToJson(const PhaseProfiler& profiler) {
  std::string out = "{\n  \"engines\": {";
  bool first_engine = true;
  for (const auto& [label, breakdown] : profiler.breakdowns()) {
    if (!first_engine) out += ",";
    first_engine = false;
    out += "\n    \"" + label + "\": " + PhaseBreakdownToJson(breakdown);
  }
  out += "\n  }\n}\n";
  return out;
}

}  // namespace p3q
