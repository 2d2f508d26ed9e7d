#include "obs/profiler.h"

#include <algorithm>
#include <string>

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

void PhaseBreakdown::MergeFrom(const PhaseBreakdown& other) {
  cycles += other.cycles;
  plan_seconds += other.plan_seconds;
  barrier_seconds += other.barrier_seconds;
  drain_seconds += other.drain_seconds;
  drain_take_seconds += other.drain_take_seconds;
  drain_teardown_seconds += other.drain_teardown_seconds;
  drain_levels += other.drain_levels;
  drain_pooled_messages += other.drain_pooled_messages;
  drain_inline_messages += other.drain_inline_messages;
  closeout_pooled_items += other.closeout_pooled_items;
  closeout_inline_items += other.closeout_inline_items;
  end_cycle_seconds += other.end_cycle_seconds;
  shard_plan_max_seconds += other.shard_plan_max_seconds;
  shard_plan_sum_seconds += other.shard_plan_sum_seconds;
  shards_per_cycle = std::max(shards_per_cycle, other.shards_per_cycle);
  max_imbalance = std::max(max_imbalance, other.max_imbalance);
  for (std::size_t i = 0; i < kImbalanceBuckets; ++i) {
    imbalance_histogram[i] += other.imbalance_histogram[i];
  }
}

PhaseBreakdown PhaseBreakdown::Since(const PhaseBreakdown& earlier) const {
  PhaseBreakdown delta;
  delta.cycles = cycles - earlier.cycles;
  delta.plan_seconds = plan_seconds - earlier.plan_seconds;
  delta.barrier_seconds = barrier_seconds - earlier.barrier_seconds;
  delta.drain_seconds = drain_seconds - earlier.drain_seconds;
  delta.drain_take_seconds = drain_take_seconds - earlier.drain_take_seconds;
  delta.drain_teardown_seconds =
      drain_teardown_seconds - earlier.drain_teardown_seconds;
  delta.drain_levels = drain_levels - earlier.drain_levels;
  delta.drain_pooled_messages =
      drain_pooled_messages - earlier.drain_pooled_messages;
  delta.drain_inline_messages =
      drain_inline_messages - earlier.drain_inline_messages;
  delta.closeout_pooled_items =
      closeout_pooled_items - earlier.closeout_pooled_items;
  delta.closeout_inline_items =
      closeout_inline_items - earlier.closeout_inline_items;
  delta.end_cycle_seconds = end_cycle_seconds - earlier.end_cycle_seconds;
  delta.shard_plan_max_seconds =
      shard_plan_max_seconds - earlier.shard_plan_max_seconds;
  delta.shard_plan_sum_seconds =
      shard_plan_sum_seconds - earlier.shard_plan_sum_seconds;
  delta.shards_per_cycle = shards_per_cycle;
  // Maxima are not subtractable; the delta keeps the running maximum, which
  // is still an upper bound for the window.
  delta.max_imbalance = max_imbalance;
  for (std::size_t i = 0; i < kImbalanceBuckets; ++i) {
    delta.imbalance_histogram[i] =
        imbalance_histogram[i] - earlier.imbalance_histogram[i];
  }
  return delta;
}

std::string PhaseBreakdownToJson(const PhaseBreakdown& breakdown) {
  std::string out = "{\"cycles\": " + std::to_string(breakdown.cycles);
  out += ", \"plan_seconds\": " + FormatFixed(breakdown.plan_seconds);
  out += ", \"barrier_seconds\": " + FormatFixed(breakdown.barrier_seconds);
  out += ", \"drain_seconds\": " + FormatFixed(breakdown.drain_seconds);
  out += ", \"drain_take_seconds\": " +
         FormatFixed(breakdown.drain_take_seconds);
  out += ", \"drain_teardown_seconds\": " +
         FormatFixed(breakdown.drain_teardown_seconds);
  out += ", \"drain_levels\": " + std::to_string(breakdown.drain_levels);
  out += ", \"drain_pooled_messages\": " +
         std::to_string(breakdown.drain_pooled_messages);
  out += ", \"drain_inline_messages\": " +
         std::to_string(breakdown.drain_inline_messages);
  out += ", \"closeout_pooled_items\": " +
         std::to_string(breakdown.closeout_pooled_items);
  out += ", \"closeout_inline_items\": " +
         std::to_string(breakdown.closeout_inline_items);
  out += ", \"end_cycle_seconds\": " +
         FormatFixed(breakdown.end_cycle_seconds);
  out += ", \"total_seconds\": " + FormatFixed(breakdown.TotalSeconds());
  out += ", \"shard_plan_max_seconds\": " +
         FormatFixed(breakdown.shard_plan_max_seconds);
  out += ", \"shard_plan_sum_seconds\": " +
         FormatFixed(breakdown.shard_plan_sum_seconds);
  out += ", \"active_shards\": " + std::to_string(breakdown.shards_per_cycle);
  out += ", \"mean_imbalance\": " +
         FormatFixed(breakdown.MeanImbalance(), 3);
  out += ", \"max_imbalance\": " + FormatFixed(breakdown.max_imbalance, 3);
  out += ", \"imbalance_histogram\": [";
  for (std::size_t i = 0; i < kImbalanceBuckets; ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(breakdown.imbalance_histogram[i]);
  }
  out += "]}";
  return out;
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
