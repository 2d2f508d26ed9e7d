// Asynchronous message delivery between the plan and commit phases.
//
// The engine's plan/commit contract (sim/engine.h) separates sending an
// effect from applying it: plan code buffers decisions, commit applies them.
// Until this layer existed every planned effect committed at the very next
// barrier — a zero-latency idealization. Here the buffered effects become
// self-contained, timestamped messages enqueued into a DeliveryQueue, and a
// pluggable LatencyModel decides at send time when (whether) each message
// commits:
//
//   - ZeroLatency      every message commits in the cycle it was planned —
//                      byte-identical to the pre-delivery engine, and the
//                      default. Draws no randomness at all.
//   - FixedLatency{k}  every message is in flight for exactly k cycles.
//   - UniformLatency   delay drawn uniformly from [lo, hi] cycles.
//   - LossyLatency     dropped with probability p; survivors delayed
//                      uniformly in [0, max_delay] cycles.
//
// Determinism: the delay/loss draw for a message comes from a dedicated
// per-(cycle, sender) stream forked exactly like the plan/commit streams
// (Engine::ForkStream with kDeliverySalt), so it depends on nothing but the
// seed — `--threads=N` stays byte-identical for every N and every model.
// The queue itself is deterministic: plan threads append to per-shard
// pending lists (one shard is always planned by one thread, in ascending
// node order); the barrier folds the lists in shard order, assigning
// monotone sequence numbers; the drain at cycle C hands back every message
// with due cycle <= C ordered by (due cycle, sender, seq).
#ifndef P3Q_SIM_DELIVERY_H_
#define P3Q_SIM_DELIVERY_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/random.h"
#include "common/types.h"
#include "sim/engine.h"
#include "sim/metrics.h"

namespace p3q {

/// The built-in latency model families.
enum class LatencyKind { kZero, kFixed, kUniform, kLossy };

/// Longest delay a latency spec accepts, in cycles. It keeps a message's
/// due cycle (send cycle + delay) from wrapping, and a uniform draw's range
/// (hi - lo + 1) from wrapping to 0.
inline constexpr std::uint64_t kMaxLatencyCycles = 1'000'000'000;

/// Declarative description of a latency model — what scenarios embed and
/// the --latency/--loss CLI flags parse into.
struct LatencySpec {
  LatencyKind kind = LatencyKind::kZero;
  std::uint64_t fixed = 0;      ///< kFixed: the delay in cycles
  std::uint64_t lo = 0;         ///< kUniform: minimum delay
  std::uint64_t hi = 0;         ///< kUniform: maximum delay
  double loss = 0.0;            ///< kLossy: per-message drop probability
  std::uint64_t max_delay = 0;  ///< kLossy: survivors delayed in [0, this]

  bool IsZero() const { return kind == LatencyKind::kZero; }

  /// Canonical compact form: "zero", "fixed:2", "uniform:1:3",
  /// "lossy:0.10:4". Round-trips through ParseLatencySpec.
  std::string Name() const;

  /// Empty when well formed, else a description of the first problem.
  /// Every delay must be at most kMaxLatencyCycles.
  std::string Validate() const;
};

/// Parses "zero" | "fixed:K" | "uniform:LO:HI" | "lossy:P:MAX" into `spec`.
/// Returns an empty string on success, else a human-readable error.
std::string ParseLatencySpec(const std::string& text, LatencySpec* spec);

/// Decides, at send time, when a message commits. Implementations must be
/// pure functions of (cycle, sender, the rng stream) — no hidden state —
/// so delivery stays deterministic and thread-count independent.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// Delay in cycles for a message `sender` puts on the wire in `cycle`;
  /// std::nullopt means the message is lost. `rng` is the dedicated
  /// per-(cycle, sender) delivery stream — the only randomness allowed.
  virtual std::optional<std::uint64_t> Delay(std::uint64_t cycle,
                                             UserId sender,
                                             Rng* rng) const = 0;

  virtual std::string Name() const = 0;

  /// True when every message is delivered with delay 0 and Delay never
  /// draws from the rng — lets the engine skip forking delivery streams.
  virtual bool IsZero() const { return false; }
};

/// Instant delivery; the default and byte-identical to the pre-delivery
/// engine.
class ZeroLatency : public LatencyModel {
 public:
  std::optional<std::uint64_t> Delay(std::uint64_t, UserId,
                                     Rng*) const override {
    return 0;
  }
  std::string Name() const override { return "zero"; }
  bool IsZero() const override { return true; }
};

/// Every message is in flight for exactly k cycles.
class FixedLatency : public LatencyModel {
 public:
  explicit FixedLatency(std::uint64_t k) : k_(k) {}
  std::optional<std::uint64_t> Delay(std::uint64_t, UserId,
                                     Rng*) const override {
    return k_;
  }
  std::string Name() const override;

 private:
  std::uint64_t k_;
};

/// Delay drawn uniformly from [lo, hi] cycles.
class UniformLatency : public LatencyModel {
 public:
  UniformLatency(std::uint64_t lo, std::uint64_t hi) : lo_(lo), hi_(hi) {}
  std::optional<std::uint64_t> Delay(std::uint64_t, UserId,
                                     Rng* rng) const override {
    return lo_ + rng->NextUint64(hi_ - lo_ + 1);
  }
  std::string Name() const override;

 private:
  std::uint64_t lo_;
  std::uint64_t hi_;
};

/// Dropped with probability p; survivors delayed uniformly in [0, max].
class LossyLatency : public LatencyModel {
 public:
  LossyLatency(double p, std::uint64_t max_delay)
      : p_(p), max_delay_(max_delay) {}
  std::optional<std::uint64_t> Delay(std::uint64_t, UserId,
                                     Rng* rng) const override {
    if (rng->NextBool(p_)) return std::nullopt;
    return rng->NextUint64(max_delay_ + 1);
  }
  std::string Name() const override;

 private:
  double p_;
  std::uint64_t max_delay_;
};

/// Builds the model a spec describes. The spec must pass Validate().
std::unique_ptr<const LatencyModel> MakeLatencyModel(const LatencySpec& spec);

/// Timestamped, deterministic in-flight message store, one per engine.
/// Plan threads enqueue into per-shard pending lists (race-free under the
/// engine's one-shard-one-thread contract); Fold() runs at the cycle
/// barrier; TakeDue() feeds the commit phase.
class DeliveryQueue {
 public:
  /// One message in flight.
  struct InFlight {
    UserId sender = kInvalidUser;
    std::uint64_t send_cycle = 0;
    std::uint64_t due_cycle = 0;
    std::uint64_t seq = 0;  ///< global fold order; monotone
    std::unique_ptr<DeliveryMessage> payload;
  };

  /// Plan-phase enqueue from `shard`'s thread.
  void EnqueuePending(std::size_t shard, UserId sender,
                      std::uint64_t send_cycle, std::uint64_t due_cycle,
                      std::unique_ptr<DeliveryMessage> payload);

  /// Plan-phase record of a message the latency model lost at send time
  /// (traced as message_dropped when a tracer is attached).
  void RecordPlannedDrop(std::size_t shard, UserId sender,
                         std::uint64_t cycle);

  /// Barrier step: folds every per-shard pending list (in shard order) into
  /// the due buckets, assigning sequence numbers, and folds the pending
  /// drop counters into the stats.
  void Fold();

  /// Removes and returns every message with due_cycle <= cycle, ordered by
  /// (due cycle, sender, seq); records each message's delivery lag.
  std::vector<InFlight> TakeDue(std::uint64_t cycle);

  /// Messages currently in flight (after the last Fold).
  std::size_t InFlightDepth() const { return in_flight_; }

  const DeliveryStats& stats() const { return stats_; }

  /// Attaches a tracer (obs/trace.h) for wire events: message_dropped at
  /// send time (shard-buffered), message_enqueued at Fold, message_delivered
  /// at TakeDue. Null detaches. Set through Engine::SetTracer.
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }

  /// Serializes the between-cycle state — the seq counter, the stats, and
  /// every in-flight message (payloads encoded by `protocol`). Only valid
  /// at a cycle barrier: the per-shard pending lists must be empty.
  void SaveState(const CycleProtocol& protocol, CheckpointWriter* out,
                 ProfilePool* pool) const;

  /// Restores state written by SaveState, replacing any current contents.
  /// Throws CheckpointError on malformed input, including a sender not
  /// below `num_users`.
  void LoadState(const CycleProtocol& protocol, CheckpointReader* in,
                 const ProfileTable& profiles, std::size_t num_users);

 private:
  std::array<std::vector<InFlight>, kEngineShards> pending_;
  std::array<std::uint64_t, kEngineShards> pending_drops_{};
  std::map<std::uint64_t, std::vector<InFlight>> due_;  ///< due cycle -> msgs
  std::uint64_t next_seq_ = 0;
  std::size_t in_flight_ = 0;
  DeliveryStats stats_;
  Tracer* tracer_ = nullptr;
};

}  // namespace p3q

#endif  // P3Q_SIM_DELIVERY_H_
