// Asynchronous message delivery between the plan and commit phases.
//
// The engine's plan/commit contract (sim/engine.h) separates sending an
// effect from applying it: plan code buffers decisions, commit applies them.
// Until this layer existed every planned effect committed at the very next
// barrier — a zero-latency idealization. Here the buffered effects become
// self-contained, timestamped messages enqueued into a DeliveryQueue, and
// the engine's LatencySpec (sim/engine.h) decides at send time when
// (whether) each message commits:
//
//   - zero           every message commits in the cycle it was planned —
//                    byte-identical to the pre-delivery engine, and the
//                    default. Draws no randomness at all.
//   - fixed:K        every message is in flight for exactly K cycles.
//   - uniform:LO:HI  delay drawn uniformly from [LO, HI] cycles.
//   - lossy:P:MAX    dropped with probability P; survivors delayed
//                    uniformly in [0, MAX] cycles.
//
// Determinism: the delay/loss draw for a message comes from a dedicated
// per-(cycle, sender) stream forked exactly like the plan/commit streams
// (Engine::ForkStream with kDeliverySalt), so it depends on nothing but the
// seed — `--threads=N` stays byte-identical for every N and every spec.
// The queue itself is deterministic: plan threads append to per-shard
// pending lists (one shard is always planned by one thread, in ascending
// node order); the barrier folds the lists in shard order, assigning
// monotone sequence numbers; the drain at cycle C hands back every message
// with due cycle <= C ordered by (due cycle, sender, seq).
//
// Where a message lives. The message object is one heap block, owned by its
// InFlight entry. What its payload points to may live in the engine's
// MessageArenas: one monotonic arena per (send cycle, plan shard), which the
// shard's thread makes on first use (PlanContext::arena) and which the
// engine releases whole once every message sent in that cycle has been
// delivered, or lost at send time, and the drain after its last delivery
// has destroyed it. Plan code therefore allocates payloads by bumping a
// pointer, and the teardown frees one block per message. A message decoded
// from a checkpoint keeps heap-backed vectors, so a resume needs no arena.
#ifndef P3Q_SIM_DELIVERY_H_
#define P3Q_SIM_DELIVERY_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <memory_resource>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/types.h"
#include "sim/engine.h"
#include "sim/metrics.h"

namespace p3q {

/// Parses "zero" | "fixed:K" | "uniform:LO:HI" | "lossy:P:MAX" into `spec`.
/// Returns an empty string on success, else a human-readable error.
std::string ParseLatencySpec(const std::string& text, LatencySpec* spec);

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
  /// drop counters into the stats. Returns the messages it folded.
  std::size_t Fold();

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
  void SaveState(CheckpointWriter* out, const CycleProtocol& protocol) const;

  /// Restores state written by SaveState, replacing any current contents.
  /// Throws CheckpointError on malformed input, including a sender outside
  /// the reader's population.
  void LoadState(CheckpointReader* in, const CycleProtocol& protocol);

 private:
  /// The SaveState/LoadState layout; `self` is const when saving.
  template <class Io, class Self>
  static void Transfer(Io& io, Self& self, const CycleProtocol& protocol);

  std::array<std::vector<InFlight>, kEngineShards> pending_;
  std::array<std::uint64_t, kEngineShards> pending_drops_{};
  std::map<std::uint64_t, std::vector<InFlight>> due_;  ///< due cycle -> msgs
  std::uint64_t next_seq_ = 0;
  std::size_t in_flight_ = 0;
  DeliveryStats stats_;
  Tracer* tracer_ = nullptr;
};

/// The arenas behind one engine's message payloads: one per (send cycle,
/// plan shard). Only the shard's plan thread opens its arena; everything
/// else runs on the calling thread between phases. Each arena bumps a
/// pointer through heap blocks and frees nothing until it is released
/// whole. Its first block takes its size from the bytes the same shard's
/// arena handed out in the previous send cycle, and a request that does
/// not fit takes a block of its own size, at least 4 KiB, so a steady run
/// reserves about what it uses. (A std::pmr::monotonic_buffer_resource
/// would make its second block 1.5 times the first.)
class MessageArenas {
 public:
  MessageArenas();
  ~MessageArenas();
  MessageArenas(const MessageArenas&) = delete;
  MessageArenas& operator=(const MessageArenas&) = delete;

  /// Plan phase, from `shard`'s thread: the shard's arena for the current
  /// send cycle, made on first use.
  std::pmr::memory_resource* Open(std::size_t shard);

  /// Barrier, after DeliveryQueue::Fold: the arenas opened since the last
  /// seal back the `sent` messages just folded, all sent in `send_cycle`.
  void Seal(std::uint64_t send_cycle, std::size_t sent);

  /// One message sent in `send_cycle` left the queue for a drain. Its
  /// object still uses the arena until the drain's teardown destroys it.
  void Delivered(std::uint64_t send_cycle);

  /// After a drain's teardown: releases the arenas of every send cycle with
  /// no message left in flight.
  void ReleaseDelivered();

  /// Releases every sealed arena: no message is left that points into one
  /// (a checkpoint load at a barrier replaced the queue's contents).
  void ReleaseAll();

  /// Bytes the arenas' blocks reserve from the heap, at the last barrier.
  std::size_t held_bytes() const { return held_bytes_; }
  /// The most held_bytes() read at any barrier, right after the plan phase.
  std::size_t peak_bytes() const { return peak_bytes_; }
  /// Send cycles whose arenas are held.
  std::size_t held_cycles() const { return sealed_.size(); }

 private:
  class Arena;  // one shard's arena for one send cycle (delivery.cc)

  /// The arenas of one send cycle and the messages still in flight from it.
  struct SendCycle {
    std::size_t in_flight = 0;
    std::vector<std::unique_ptr<Arena>> arenas;
  };

  void Release(SendCycle& cycle);

  std::array<std::unique_ptr<Arena>, kEngineShards> open_;
  /// Bytes each shard's arena handed out in the last send cycle: the size
  /// of its next arena's first block.
  std::array<std::size_t, kEngineShards> last_used_{};
  std::map<std::uint64_t, SendCycle> sealed_;  ///< send cycle -> arenas
  std::size_t held_bytes_ = 0;
  std::size_t peak_bytes_ = 0;
};

}  // namespace p3q

#endif  // P3Q_SIM_DELIVERY_H_
