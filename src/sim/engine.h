// Deterministic sharded parallel cycle engine (the PeerSim substitute).
//
// PeerSim's cycle-based mode invokes, once per cycle, the nextCycle() hook
// of every node's protocol. This engine drives one message-passing protocol
// and executes each cycle as a deterministic bulk-synchronous step, so the
// node loop can run on several threads while producing byte-identical
// results for every thread count (including 1):
//
//   1. A node takes part in a cycle when CycleProtocol::ActiveInCycle says
//      so. Only the plan phase asks, and nothing it reads changes during the
//      plan, so a node going offline through a commit still commits what it
//      planned and plans nothing from the next cycle on.
//   2. The cycle then runs, in order:
//        a. PlanCycle(node, ctx)       — the PARALLEL phase. Nodes are
//           partitioned into kEngineShards fixed, contiguous shards; worker
//           threads claim whole shards, so one shard is always planned by a
//           single thread, in ascending node order. Plan code may only READ
//           shared state (the frozen end-of-previous-phase state) and write
//           (i) per-node effect slots nobody else touches and (ii) the
//           per-shard mailboxes (e.g. Network::ShardTraffic). All
//           randomness comes from ctx.rng, a private stream forked from
//           (seed, cycle, node), so no draw depends on interleaving.
//        b. EndPlan(cycle)             — sequential barrier hook; merges the
//           per-shard mailboxes in shard order.
//        c. The delivery drain — the COMMIT phase: CommitMessage for every
//           due message (see below), which may mutate any node's state.
//        d. EndCycle(cycle, rng)       — the sequential end-of-cycle hook,
//           on the calling thread outside any pool job, with the stream
//           forked from (seed, cycle, kCycleSalt). Work it hands to the
//           pool (e.g. the eager mode's wave screens and query close-outs)
//           keeps the item rules below.
//
// Every parallel step (the plan's shards, a drain's messages) runs through
// the WorkerPool the engine borrows (sim/worker_pool.h): on its workers with
// more than one thread and at least WorkerPool::kMinPooledItems items, else
// on the calling thread. The system's two engines share one pool.
//
// Because plan reads only frozen state and every commit sees the state the
// canonical commit order gives it, the node-visit multiset, every RNG
// stream, and every committed effect are independent of the thread count —
// `--threads=N` is byte-identical to `--threads=1`.
//
// Asynchronous delivery (sim/delivery.h) sits between the two phases: a
// protocol's plan code packages its buffered effects as a self-contained
// DeliveryMessage and hands it to PlanContext::Send. The engine's
// LatencySpec decides at send time when the message commits (the default,
// zero latency, commits it in the drain of the cycle that sent it); the
// engine drains every due message during the commit phase in (due cycle,
// sender, seq) order, invoking the protocol's CommitMessage with a
// per-(cycle, sender) forked stream.
//
// A message's lifetime. Plan code may put what a message points to on
// PlanContext::arena, the planning shard's arena for the current send cycle.
// CommitMessage drops its message's snapshot handles before it returns, so
// in a parallel drain those drops run on the workers. After the drain the
// calling thread destroys the committed messages (the teardown), and the
// engine then releases the arenas of every send cycle that has no message
// left in flight (sim/delivery.h).
//
// One drain, two schedules. The drain forks one commit stream per run of
// one sender's messages and commits every message through one function.
// By default it commits them in message order on the calling thread. When
// the protocol declares commit footprints
// (CycleProtocol::DeclaresCommitFootprints: the users whose state each
// message's commit reads or writes) and the pool has more than one
// thread, every due message waits on the previous due message of each user
// in its footprint. One ForEachItem pass then commits each message
// as soon as those have committed, on whichever worker takes it, and each
// commit releases the messages that waited on it last. Two messages
// sharing a user still commit in (due, sender, seq) order, and only
// messages with disjoint footprints commit at the same time, so every
// commit sees exactly the state message order gives it. The longest chain
// of messages that each wait on the one before is the drain's critical
// path (PhaseBreakdown::drain_levels). The rest of the contract a
// footprint-declaring protocol keeps: shared counters are written only
// through per-worker lanes (CommitContext::worker), and trace events only
// through CommitContext::Emit, which stages them and accepts them in message
// order after the drain.
//
// The item rules. An item EndCycle hands to the pool may run on any thread,
// concurrently with the other items and with the job's `beside` work, so it
// draws no randomness, emits no trace events, writes no shared counters, and
// touches only its own scratch or state, nothing the `beside` work does.
#ifndef P3Q_SIM_ENGINE_H_
#define P3Q_SIM_ENGINE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <optional>
#include <string>
#include <utility>

#include "common/random.h"
#include "common/types.h"
#include "sim/metrics.h"
#include "sim/worker_pool.h"

namespace p3q {

class DeliveryQueue;     // timestamped in-flight messages (sim/delivery.h)
class MessageArenas;     // per-(send cycle, shard) payload arenas (ditto)
class Tracer;            // deterministic event tracing (obs/trace.h)
struct TraceEvent;       // one trace record (obs/trace.h)
class PhaseProfiler;     // wall-clock phase profiling (obs/profiler.h)
struct PhaseBreakdown;   // one engine's profile slot (obs/profiler.h)
class CheckpointWriter;  // snapshot byte sink (sim/checkpoint.h)
class CheckpointReader;  // snapshot byte source (sim/checkpoint.h)
class CommitEventStage;  // staged commit trace events (engine.cc)

/// Base of every self-contained planned effect a protocol sends through the
/// delivery layer; protocols derive their own payload types and downcast in
/// CommitMessage.
struct DeliveryMessage {
  virtual ~DeliveryMessage() = default;
};

/// Fixed shard count. Nodes map to contiguous shards independently of the
/// thread count, so shard-indexed mailboxes merge identically for every N.
inline constexpr std::size_t kEngineShards = 64;

/// The built-in latency model families.
enum class LatencyKind { kZero, kFixed, kUniform, kLossy };

/// Longest delay a latency spec accepts, in cycles. It keeps a message's
/// due cycle (send cycle + delay) from wrapping, and a uniform draw's range
/// (hi - lo + 1) from wrapping to 0.
inline constexpr std::uint64_t kMaxLatencyCycles = 1'000'000'000;

/// The latency model an engine delivers messages under — what scenarios
/// embed and the --latency/--loss CLI flags parse into (ParseLatencySpec in
/// sim/delivery.h; sim/delivery.cc defines these members).
struct LatencySpec {
  LatencyKind kind = LatencyKind::kZero;
  std::uint64_t fixed = 0;      ///< kFixed: the delay in cycles
  std::uint64_t lo = 0;         ///< kUniform: minimum delay
  std::uint64_t hi = 0;         ///< kUniform: maximum delay
  double loss = 0.0;            ///< kLossy: per-message drop probability
  std::uint64_t max_delay = 0;  ///< kLossy: survivors delayed in [0, this]

  bool IsZero() const { return kind == LatencyKind::kZero; }

  /// Delay in cycles for one message, or std::nullopt when it is lost.
  /// `rng` is the sender's dedicated per-(cycle, node) delivery stream, the
  /// only randomness allowed: uniform draws one NextUint64(hi - lo + 1);
  /// lossy draws one NextBool(loss), then one NextUint64(max_delay + 1) for
  /// a survivor; zero and fixed draw nothing (a null rng is safe). The spec
  /// must pass Validate().
  std::optional<std::uint64_t> Delay(Rng* rng) const;

  /// Canonical compact form: "zero", "fixed:2", "uniform:1:3",
  /// "lossy:0.1:4". Round-trips through ParseLatencySpec.
  std::string Name() const;

  /// Empty when well formed, else a description of the first problem.
  /// Every delay must be at most kMaxLatencyCycles.
  std::string Validate() const;
};

/// Everything a plan-phase callback may use besides the node id.
struct PlanContext {
  std::uint64_t cycle = 0;
  /// Shard the node belongs to; plan code writing to per-shard mailboxes
  /// (e.g. Network::ShardTraffic) must index them with this.
  std::size_t shard = 0;
  /// The node being planned (redundant with PlanCycle's argument; Send
  /// stamps it as the message sender).
  UserId node = kInvalidUser;
  /// Private per-(cycle, node) random stream; the ONLY randomness plan code
  /// may draw.
  Rng* rng = nullptr;

  /// Puts a self-contained planned effect on the wire: the engine's latency
  /// spec picks the delivery cycle (or drops the message), and the
  /// protocol's CommitMessage is invoked when it arrives. Race-free from
  /// plan threads (per-shard pending lists).
  void Send(std::unique_ptr<DeliveryMessage> message) const;

  /// This shard's arena for the current send cycle, made on first use:
  /// where the cycle's messages keep what they point to. The engine releases
  /// it whole once every message sent this cycle has been delivered or lost
  /// and destroyed, so nothing on it may outlive the message that holds it.
  std::pmr::memory_resource* arena() const;

  // Engine-internal delivery wiring (set up per node by the plan phase).
  DeliveryQueue* queue = nullptr;
  MessageArenas* arenas = nullptr;
  /// The engine's spec; null for zero latency, whose fast path consults
  /// nothing and delivers every message this cycle.
  const LatencySpec* latency = nullptr;
  /// Dedicated per-(cycle, node) stream for delay/loss draws (kDeliverySalt),
  /// so the latency model never perturbs the protocol's own plan stream.
  /// Null for zero latency.
  Rng* delivery_rng = nullptr;
};

/// Everything a CommitMessage callback may use besides the sender and the
/// message.
struct CommitContext {
  std::uint64_t send_cycle = 0;
  /// The cycle the message arrives (commits) in.
  std::uint64_t cycle = 0;
  /// The per-(cycle, sender) commit stream, shared by every message of the
  /// sender arriving this cycle (see CycleProtocol::CommitMessage).
  Rng* rng = nullptr;
  /// The committing thread, in [0, threads): 0 is the calling thread, which
  /// runs the whole in-order drain. Counters every commit writes live in
  /// one lane per worker, indexed by this, and are folded after the drain.
  std::size_t worker = 0;

  /// True when a tracer is attached (build trace events only then).
  bool tracing() const { return tracer != nullptr; }

  /// Emits a trace event from the commit. The in-order drain accepts it at
  /// once; a drain on the workers stages it and accepts every staged event
  /// in message order once the drain ends, so the trace stream is the same.
  void Emit(const TraceEvent& event) const;

  // Engine-internal trace wiring.
  Tracer* tracer = nullptr;
  /// Null in the in-order drain.
  CommitEventStage* stage = nullptr;
  /// The message's index in the drain's (due, sender, seq) order.
  std::size_t message = 0;
};

/// Every user whose state one delivered message's CommitMessage reads or
/// writes.
struct CommitFootprint {
  static constexpr std::size_t kMaxUsers = 4;

  /// Adds `user` unless it is kInvalidUser or already present. Throws
  /// std::length_error for a distinct user past kMaxUsers.
  void Add(UserId user);

  std::array<UserId, kMaxUsers> users{};
  std::size_t size = 0;
};

/// The per-node protocol an Engine drives.
///
/// The execution contract (see the file comment): PlanCycle runs in
/// parallel against frozen state and sends its effects as DeliveryMessages;
/// CommitMessage applies each one when it arrives, in the drain's canonical
/// order. Shared state must never be mutated during the plan phase.
class CycleProtocol {
 public:
  virtual ~CycleProtocol() = default;

  /// The engine's only per-node filter: the plan phase skips a node for
  /// which this returns false (an offline user initiates no gossip). It is
  /// asked from plan-phase threads, so it must be read-only and race-free,
  /// and it runs before the node's streams are forked, so a mostly-idle
  /// population (e.g. eager query processing) costs one probe per node.
  virtual bool ActiveInCycle(UserId node) const {
    (void)node;
    return true;
  }

  /// Parallel phase: invoked once per active node per cycle, possibly from
  /// several threads at once. Must not mutate shared state (see contract).
  virtual void PlanCycle(UserId node, const PlanContext& ctx) = 0;

  /// Sequential barrier hook between the plan and commit phases (merge the
  /// per-shard mailboxes here).
  virtual void EndPlan(std::uint64_t cycle) { (void)cycle; }

  /// The commit: delivery of one message sent by `sender` in
  /// `ctx.send_cycle`, arriving in `ctx.cycle`. It may mutate any node's
  /// state. Every commit sees the state the (due cycle, sender, seq) order
  /// gives it; `ctx.rng` is the per-(cycle, sender) commit stream, shared
  /// by all of a sender's messages arriving this cycle. It drops the
  /// message's snapshot handles before it returns, so the teardown after
  /// the drain only frees the message.
  virtual void CommitMessage(UserId sender, DeliveryMessage& message,
                             const CommitContext& ctx) {
    (void)sender;
    (void)message;
    (void)ctx;
  }

  /// Opts into the drain on the workers, where each message commits once
  /// the earlier messages sharing a user with it have (see the file
  /// comment). The engine asks once per drain; the default — no
  /// footprints — commits in message order on the calling thread. A
  /// protocol returning true promises that CommitFootprintOf names every
  /// user CommitMessage reads or writes, that CommitMessage writes shared
  /// counters only through per-worker lanes (CommitContext::worker), and
  /// that it emits trace events only through CommitContext::Emit.
  virtual bool DeclaresCommitFootprints() const { return false; }

  /// Adds to `footprint` the users `message`'s commit touches. The
  /// footprint arrives holding the sender: a sender's messages share one
  /// commit stream, so they must commit in order. Called sequentially,
  /// before any commit of the drain; only when DeclaresCommitFootprints()
  /// is true.
  virtual void CommitFootprintOf(UserId sender,
                                 const DeliveryMessage& message,
                                 CommitFootprint* footprint) const {
    (void)sender;
    (void)message;
    (void)footprint;
  }

  /// Sequential hook after the cycle's drain (step d of the file comment).
  virtual void EndCycle(std::uint64_t cycle, Rng* rng) {
    (void)cycle;
    (void)rng;
  }

  /// Serializes one of this protocol's DeliveryMessage payloads into a
  /// checkpoint. Protocols that put messages on the wire must override both
  /// codec hooks; the defaults throw CheckpointError (a protocol that never
  /// sends is never asked to encode).
  virtual void EncodeMessage(const DeliveryMessage& message,
                             CheckpointWriter* out) const;

  /// Reconstructs a payload previously written by EncodeMessage. Must throw
  /// CheckpointError (never crash) on malformed input.
  virtual std::unique_ptr<DeliveryMessage> DecodeMessage(
      CheckpointReader* in) const;
};

/// Deterministic sharded cycle scheduler.
class Engine {
 public:
  /// num_nodes: population size; seed: root of every forked stream;
  /// protocol: the one protocol every cycle runs; pool: the threads the
  /// plan and the drain run on, which engines that never run at the same
  /// time may share. Neither is owned, and both must outlive the engine.
  /// Results are byte-identical for every thread count of the pool.
  Engine(std::size_t num_nodes, std::uint64_t seed, CycleProtocol* protocol,
         WorkerPool* pool);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Sets the latency model governing message delivery; the spec must pass
  /// Validate(). Zero latency (the default) is the fast path —
  /// byte-identical to the synchronous engine. Messages already in flight
  /// keep their delivery cycles.
  void SetLatency(const LatencySpec& spec) { latency_ = spec; }

  /// Attaches a deterministic event tracer (obs/trace.h): the engine folds
  /// its per-shard plan buffers at every cycle barrier (so traces are
  /// thread-count independent) and propagates it to the DeliveryQueue for
  /// wire events. Null detaches. The tracer must outlive the engine's
  /// remaining RunCycles calls.
  void SetTracer(Tracer* tracer);
  Tracer* tracer() const { return tracer_; }

  /// Attaches a wall-clock phase profiler (obs/profiler.h): every cycle's
  /// plan/barrier/drain/EndCycle sections and per-shard plan times are
  /// accumulated under `label`. Null detaches. Profiling never touches
  /// deterministic state — reports stay byte-stable.
  void SetProfiler(PhaseProfiler* profiler, const std::string& label);

  /// The delivery queue's counters.
  DeliveryStats DeliveryStatsTotal() const;

  /// Messages currently in flight.
  std::size_t MessagesInFlight() const;

  /// The arenas behind the messages' payloads (sim/delivery.h).
  const MessageArenas& message_arenas() const { return *arenas_; }

  std::size_t num_nodes() const { return num_nodes_; }

  /// Runs n cycles.
  void RunCycles(std::uint64_t n);

  /// Cycles completed so far.
  std::uint64_t CurrentCycle() const { return cycle_; }

  /// Serializes the engine's between-cycle state — a seed echo, the cycle
  /// counter, a queue count (always 1) and the delivery queue (payloads
  /// encoded by the protocol). Only valid at a cycle barrier, where no
  /// per-shard pending state exists.
  void SaveState(CheckpointWriter* out) const;

  /// Restores state written by SaveState. The engine must have the saving
  /// engine's seed and protocol; a different seed or a queue count other
  /// than 1 throws CheckpointError.
  void LoadState(CheckpointReader* in);

  /// Shard of `node` in a population of `num_nodes`: contiguous ranges, so
  /// ascending node order equals (shard, node-within-shard) order.
  static std::size_t ShardOf(UserId node, std::size_t num_nodes) {
    const std::size_t per = ShardWidth(num_nodes);
    return per == 0 ? 0 : static_cast<std::size_t>(node) / per;
  }

  /// The independent stream handed to `node` in `cycle` for phase `salt`
  /// (kPlanSalt / kCommitSalt / kCycleSalt). Exposed so tests can pin the
  /// derivation and protocols can fork auxiliary streams deterministically.
  static Rng ForkStream(std::uint64_t seed, std::uint64_t cycle, UserId node,
                        std::uint64_t salt);

  static constexpr std::uint64_t kPlanSalt = 0x706c616eULL;      // "plan"
  static constexpr std::uint64_t kCommitSalt = 0x636f6d6dULL;    // "comm"
  static constexpr std::uint64_t kCycleSalt = 0x6379636cULL;     // "cycl"
  static constexpr std::uint64_t kDeliverySalt = 0x64656c76ULL;  // "delv"

 private:
  class Drain;  // the delivery drain and its scratch (engine.cc)

  static std::size_t ShardWidth(std::size_t num_nodes) {
    return (num_nodes + kEngineShards - 1) / kEngineShards;
  }
  /// [first, last) node range of `shard`.
  std::pair<UserId, UserId> ShardRange(std::size_t shard) const;

  void RunPlanPhase();
  void DrainDueMessages();
  void RunOneCycle();
  /// The SaveState/LoadState layout; `self` is const when saving.
  template <class Io, class Self>
  static void Transfer(Io& io, Self& self);

  CycleProtocol* protocol_;
  WorkerPool* pool_;
  /// Declared before queue_, so in-flight messages are destroyed before
  /// the arenas that back them.
  std::unique_ptr<MessageArenas> arenas_;
  std::unique_ptr<DeliveryQueue> queue_;  ///< the protocol's messages
  LatencySpec latency_;
  std::size_t num_nodes_;
  std::uint64_t seed_;
  std::uint64_t cycle_ = 0;
  Tracer* tracer_ = nullptr;
  /// Stable slot inside the attached profiler; null when not profiling.
  PhaseBreakdown* profile_ = nullptr;
  /// Per-shard plan wall-clock of the current cycle; each slot is written
  /// only by the thread that planned that shard (the mailbox discipline),
  /// read sequentially after the barrier. Only maintained while profiling.
  std::array<double, kEngineShards> shard_plan_seconds_{};
  /// Reused by every drain.
  std::unique_ptr<Drain> drain_;
};

}  // namespace p3q

#endif  // P3Q_SIM_ENGINE_H_
