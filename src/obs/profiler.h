// Wall-clock phase profiling for the cycle engine.
//
// Unlike the tracer (obs/trace.h), which is deterministic and cycle-stamped,
// the profiler measures real elapsed time: how long each engine phase (plan,
// barrier fold, delivery drain, EndCycle) takes per cycle, and how evenly
// the plan phase's work spreads across shards. It answers the "where does
// the wall-clock go" questions the SIMD/NUMA and multi-process roadmap items
// need, so it reports through the opt-in --timing gate and never perturbs
// default byte-stable reports.
//
// PhaseBreakdown is a counter record (common/counters.h): MergeFrom, Since
// and PhaseBreakdownToJson walk its Counters() list of folds and keys.
#ifndef P3Q_OBS_PROFILER_H_
#define P3Q_OBS_PROFILER_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>

#include "common/counters.h"

namespace p3q {

/// Histogram of per-cycle plan-phase imbalance (max shard time / mean shard
/// time). Bucket i covers ratios [1 + i/4, 1 + (i+1)/4); the last bucket is
/// open-ended. Ratio 1.0 = perfectly balanced shards.
inline constexpr std::size_t kImbalanceBuckets = 16;

/// Accumulated wall-clock breakdown for one engine.
struct PhaseBreakdown {
  std::uint64_t cycles = 0;            ///< cycles measured
  double plan_seconds = 0.0;           ///< parallel plan phase
  double barrier_seconds = 0.0;        ///< EndPlan + trace/queue folds
  double drain_seconds = 0.0;          ///< delivery drain + message commits
  /// Two sub-spans of drain_seconds (not added to TotalSeconds): taking the
  /// due messages off the delivery queue, and destroying them once all
  /// have committed.
  double drain_take_seconds = 0.0;
  double drain_teardown_seconds = 0.0;
  /// The drains' critical paths (sim/engine.h): per drain on the workers,
  /// the longest footprint chain, in messages, each waiting on the one
  /// before; a drain in message order adds none. Long chains come from
  /// users many others gossip with.
  std::uint64_t drain_levels = 0;
  /// Messages of the drains offered to the worker pool. The calling
  /// thread takes them too, and may commit a short drain before any worker
  /// wakes, so this counts where messages could run, not where they ran.
  std::uint64_t drain_pooled_messages = 0;
  /// Messages committed on the calling thread: every drain in message
  /// order, plus every drain too small to be worth the pool.
  std::uint64_t drain_inline_messages = 0;
  /// Messages of the pooled drains that a pool worker, not the calling
  /// thread, committed: where commits ran. It depends on how the threads
  /// were scheduled, so it varies from run to run; at most
  /// drain_pooled_messages, and 0 at one thread.
  std::uint64_t drain_worker_messages = 0;
  /// Worker-seconds the drains' workers spent waiting for a message to
  /// become ready to commit, summed over the workers (a sub-span of their
  /// share of drain_seconds).
  double drain_wait_seconds = 0.0;
  /// EndCycle, with the work it hands to the worker pool (the eager mode's
  /// wave screens and query close-outs).
  double end_cycle_seconds = 0.0;
  double shard_plan_max_seconds = 0.0; ///< sum over cycles of max shard time
  double shard_plan_sum_seconds = 0.0; ///< sum over cycles of all shard times
  std::uint64_t shards_per_cycle = 0;  ///< active (non-empty) shards
  double max_imbalance = 0.0;          ///< worst per-cycle max/mean ratio
  std::array<std::uint64_t, kImbalanceBuckets> imbalance_histogram{};

  static constexpr auto Counters() {
    using P = PhaseBreakdown;
    return std::tuple{
        Sum(&P::cycles, "cycles"),
        Sum(&P::plan_seconds, "plan_seconds"),
        Sum(&P::barrier_seconds, "barrier_seconds"),
        Sum(&P::drain_seconds, "drain_seconds"),
        Sum(&P::drain_take_seconds, "drain_take_seconds"),
        Sum(&P::drain_teardown_seconds, "drain_teardown_seconds"),
        Sum(&P::drain_levels, "drain_levels"),
        Sum(&P::drain_pooled_messages, "drain_pooled_messages"),
        Sum(&P::drain_inline_messages, "drain_inline_messages"),
        Sum(&P::drain_worker_messages, "drain_worker_messages"),
        Sum(&P::drain_wait_seconds, "drain_wait_seconds"),
        Sum(&P::end_cycle_seconds, "end_cycle_seconds"),
        Computed(&P::TotalSeconds, "total_seconds"),
        Sum(&P::shard_plan_max_seconds, "shard_plan_max_seconds"),
        Sum(&P::shard_plan_sum_seconds, "shard_plan_sum_seconds"),
        Peak(&P::shards_per_cycle, "active_shards"),
        Computed(&P::MeanImbalance, "mean_imbalance", 3),
        Peak(&P::max_imbalance, "max_imbalance", 3),
        Sum(&P::imbalance_histogram, "imbalance_histogram")};
  }

  /// Total measured engine time.
  double TotalSeconds() const {
    return plan_seconds + barrier_seconds + drain_seconds + end_cycle_seconds;
  }

  /// Mean per-cycle plan imbalance: max shard time over mean shard time,
  /// aggregated across cycles. 0 when nothing was measured.
  double MeanImbalance() const;

  /// Folds one cycle's measurements in. `shard_seconds`/`active_shards`
  /// describe the plan phase's per-shard times (max, sum, count of shards
  /// that had nodes to plan).
  void AddCycle(double plan, double barrier, double drain, double end_cycle,
                double shard_max, double shard_sum,
                std::uint64_t active_shards);

  void MergeFrom(const PhaseBreakdown& other) { MergeCounters(*this, other); }

  /// Delta since an earlier snapshot; the peaks keep the running maximum.
  PhaseBreakdown Since(const PhaseBreakdown& earlier) const {
    return CountersSince(*this, earlier);
  }
};

/// Collects PhaseBreakdowns keyed by engine label ("lazy", "eager").
/// Engines hold a stable pointer to their breakdown, so attaching the
/// profiler is one pointer store per engine.
class PhaseProfiler {
 public:
  /// Returns the breakdown for `label`, creating it on first use. The
  /// pointer stays valid for the profiler's lifetime.
  PhaseBreakdown* Breakdown(const std::string& label) {
    return &breakdowns_[label];
  }

  const std::map<std::string, PhaseBreakdown>& breakdowns() const {
    return breakdowns_;
  }

  /// Snapshot of every breakdown, for later Since deltas.
  std::map<std::string, PhaseBreakdown> Snapshot() const {
    return breakdowns_;
  }

 private:
  std::map<std::string, PhaseBreakdown> breakdowns_;
};

/// Renders one breakdown as a one-line JSON object, a key per list entry:
/// {"cycles": .., "plan_seconds": .., ..., "imbalance_histogram": [..]}
std::string PhaseBreakdownToJson(const PhaseBreakdown& breakdown);

/// Renders the profiler as a JSON document, one PhaseBreakdownToJson object
/// per engine label: {"engines": {"eager": {...}, "lazy": {...}}}
std::string PhaseProfilerToJson(const PhaseProfiler& profiler);

}  // namespace p3q

#endif  // P3Q_OBS_PROFILER_H_
