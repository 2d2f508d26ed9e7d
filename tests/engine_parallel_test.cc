// Property/invariant suite for the deterministic sharded parallel engine's
// execution contract (see sim/engine.h):
//  - every active node is planned and committed exactly once per cycle;
//    nodes ActiveInCycle turns away are skipped entirely;
//  - each cycle runs the plan phase, the EndPlan barrier, the commits in
//    ascending sender order, then EndCycle;
//  - the per-cycle node-visit multiset, the per-node RNG streams and all
//    committed effects are independent of the thread count (and of the
//    shard count, which is fixed), and every plan, commit and EndCycle
//    stream is the ForkStream of its (cycle, node) coordinates: a sender's
//    commits in one drain continue one stream in message order;
//  - the per-shard mailboxes merge deterministically;
//  - the delivery drain on the workers, where each commit is released by
//    the commits it waits on, commits every message against the state,
//    with the stream draws, lane totals and trace order of the in-order
//    drain at one thread, also when the whole drain is one chain, when
//    commits finish out of message order and when a commit throws; a
//    protocol without commit footprints drains in message order on the
//    calling thread;
//  - the message arenas behind the payloads are sized from the last cycle
//    and held exactly while their send cycle has a message in flight;
//  - the worker pool (sim/worker_pool.h) runs every item exactly once, on
//    its workers exactly when it has more than one thread and at least
//    kMinPooledItems items, else on the calling thread, with worker indices
//    below its thread count and 0 exactly on the calling thread; its
//    `beside` work runs once on the calling thread, beside the items when
//    they pool and before them otherwise; an item that throws on a worker
//    is rethrown only after every other item ran; and SetThreads respawns
//    the workers at the new count;
//  - EndCycle runs once per cycle, after the drain, on the calling thread
//    and outside any pool job, so the items it hands to the pool the engine
//    borrows (as the eager mode screens its wave and closes out its
//    queries) keep those rules, beside its own work or joined.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/delivery.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "sim/worker_pool.h"
#include "test_util.h"

namespace p3q {
namespace {

/// Records everything the engine does, honouring the contract: plan writes
/// only per-node slots (plus an atomic concurrency probe) and sends one
/// message per node; the in-order drain appends each commit to shared
/// logs. When given, `active` names the nodes that take part in a cycle.
class RecordingProtocol : public CycleProtocol {
 public:
  struct PlanRecord {
    std::uint64_t cycle = 0;
    std::size_t shard = 0;
    std::uint64_t first_draw = 0;  ///< first value of the node's stream
    int visits = 0;
  };

  explicit RecordingProtocol(std::size_t num_nodes,
                             std::function<bool(UserId)> active = nullptr)
      : slots_(num_nodes), active_(std::move(active)) {}

  bool ActiveInCycle(UserId node) const override {
    return !active_ || active_(node);
  }
  void PlanCycle(UserId node, const PlanContext& ctx) override {
    PlanRecord& slot = slots_[node];
    slot.cycle = ctx.cycle;
    slot.shard = ctx.shard;
    slot.first_draw = (*ctx.rng)();
    slot.visits += 1;
    const int now = in_plan_.fetch_add(1) + 1;
    int peak = peak_concurrency.load();
    while (now > peak && !peak_concurrency.compare_exchange_weak(peak, now)) {
    }
    in_plan_.fetch_sub(1);
    ctx.Send(std::make_unique<DeliveryMessage>());
  }
  void EndPlan(std::uint64_t cycle) override {
    sequence.push_back({"end_plan", cycle, kInvalidUser});
    for (UserId u = 0; u < static_cast<UserId>(slots_.size()); ++u) {
      if (slots_[u].visits > 0) {
        plans.emplace_back(u, slots_[u]);
        slots_[u].visits = 0;
      }
    }
  }
  void CommitMessage(UserId sender, DeliveryMessage& /*message*/,
                     const CommitContext& ctx) override {
    commits.push_back({sender, ctx.cycle, (*ctx.rng)()});
    sequence.push_back({"commit", ctx.cycle, sender});
  }
  void EndCycle(std::uint64_t cycle, Rng* /*rng*/) override {
    sequence.push_back({"end_cycle", cycle, kInvalidUser});
  }

  struct CommitRecord {
    UserId node;
    std::uint64_t cycle;
    std::uint64_t first_draw;
    bool operator==(const CommitRecord& o) const {
      return node == o.node && cycle == o.cycle && first_draw == o.first_draw;
    }
  };
  struct SequenceEntry {
    std::string what;
    std::uint64_t cycle;
    UserId node;
  };

  std::vector<std::pair<UserId, PlanRecord>> plans;  // harvested per cycle
  std::vector<CommitRecord> commits;
  std::vector<SequenceEntry> sequence;
  std::atomic<int> peak_concurrency{0};

 private:
  std::vector<PlanRecord> slots_;
  std::function<bool(UserId)> active_;
  std::atomic<int> in_plan_{0};
};

struct RunResult {
  /// (node, cycle) -> (shard, plan first draw, commit first draw).
  std::map<std::pair<UserId, std::uint64_t>,
           std::tuple<std::size_t, std::uint64_t, std::uint64_t>>
      visits;
  std::vector<RecordingProtocol::CommitRecord> commits;
};

RunResult RunRecorded(std::size_t num_nodes, std::uint64_t seed, int threads,
                      std::uint64_t cycles,
                      std::function<bool(UserId)> active = nullptr) {
  RecordingProtocol protocol(num_nodes, std::move(active));
  WorkerPool pool;
  pool.SetThreads(threads);
  Engine engine(num_nodes, seed, &protocol, &pool);
  engine.RunCycles(cycles);

  RunResult result;
  result.commits = protocol.commits;
  for (const auto& [node, plan] : protocol.plans) {
    EXPECT_EQ(plan.visits, 1) << "node " << node << " planned "
                              << plan.visits << " times in cycle "
                              << plan.cycle;
    result.visits[{node, plan.cycle}] = {plan.shard, plan.first_draw, 0};
  }
  for (const auto& c : protocol.commits) {
    auto it = result.visits.find({c.node, c.cycle});
    EXPECT_NE(it, result.visits.end())
        << "commit without plan: node " << c.node << " cycle " << c.cycle;
    if (it != result.visits.end()) std::get<2>(it->second) = c.first_draw;
  }
  return result;
}

TEST(EngineParallelTest, EveryOnlineNodeRunsExactlyOncePerCyclePerProtocol) {
  constexpr std::size_t kNodes = 97;
  constexpr std::uint64_t kCycles = 4;
  const RunResult r = RunRecorded(kNodes, 41, /*threads=*/3, kCycles);
  EXPECT_EQ(r.visits.size(), kNodes * kCycles);
  EXPECT_EQ(r.commits.size(), kNodes * kCycles);
  for (std::uint64_t c = 0; c < kCycles; ++c) {
    for (UserId u = 0; u < kNodes; ++u) {
      EXPECT_TRUE(r.visits.count({u, c})) << "node " << u << " cycle " << c;
    }
  }
}

TEST(EngineParallelTest, OfflineNodesAreSkippedInBothPhases) {
  constexpr std::size_t kNodes = 40;
  auto is_online = [](UserId u) { return u % 3 != 0; };
  const RunResult r = RunRecorded(kNodes, 43, /*threads=*/4, 3, is_online);
  for (const auto& [key, value] : r.visits) {
    EXPECT_NE(key.first % 3, 0u);
  }
  for (const auto& c : r.commits) EXPECT_NE(c.node % 3, 0u);
  std::size_t online = 0;
  for (UserId u = 0; u < kNodes; ++u) online += is_online(u) ? 1 : 0;
  EXPECT_EQ(r.commits.size(), online * 3);
}

TEST(EngineParallelTest, VisitMultisetAndStreamsIdenticalAcrossThreadCounts) {
  constexpr std::size_t kNodes = 230;  // several shards, uneven tail
  const RunResult base = RunRecorded(kNodes, 47, /*threads=*/1, 3);
  for (int threads : {2, 3, 8}) {
    const RunResult r = RunRecorded(kNodes, 47, threads, 3);
    // Same (node, cycle) multiset, same shard assignment, and — the RNG
    // contract — the same per-(cycle, node) plan and commit streams.
    EXPECT_EQ(r.visits, base.visits) << threads << " threads";
    // Commits additionally arrive in the identical (canonical) order.
    EXPECT_EQ(r.commits, base.commits) << threads << " threads";
  }
}

TEST(EngineParallelTest, CommitsAreSequentialAndAscendingUnderThreads) {
  RecordingProtocol protocol(120);
  WorkerPool pool;
  pool.SetThreads(8);
  Engine engine(120, 53, &protocol, &pool);
  engine.RunCycles(2);
  std::uint64_t prev_cycle = ~std::uint64_t{0};
  std::int64_t prev_node = -1;
  for (const auto& c : protocol.commits) {
    if (c.cycle != prev_cycle) {
      prev_cycle = c.cycle;
      prev_node = -1;
    }
    EXPECT_GT(static_cast<std::int64_t>(c.node), prev_node)
        << "commit order must ascend within a cycle";
    prev_node = static_cast<std::int64_t>(c.node);
  }
}

TEST(EngineParallelTest, PhasesRunInContractOrderEveryCycle) {
  RecordingProtocol protocol(10);
  WorkerPool pool;
  pool.SetThreads(4);
  Engine engine(10, 59, &protocol, &pool);
  engine.RunCycles(3);

  // Sequence per cycle: end_plan (the barrier), 10 commits, end_cycle.
  ASSERT_EQ(protocol.sequence.size(), 3 * (2 + 10));
  for (std::uint64_t c = 0; c < 3; ++c) {
    const std::size_t base = c * 12;
    EXPECT_EQ(protocol.sequence[base].what, "end_plan");
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_EQ(protocol.sequence[base + 1 + i].what, "commit");
      EXPECT_EQ(protocol.sequence[base + 1 + i].node, static_cast<UserId>(i));
    }
    EXPECT_EQ(protocol.sequence[base + 11].what, "end_cycle");
  }
}

TEST(EngineParallelTest, ShardAssignmentIsContiguousAndThreadIndependent) {
  constexpr std::size_t kNodes = 500;
  const RunResult r = RunRecorded(kNodes, 61, /*threads=*/7, 1);
  std::size_t prev_shard = 0;
  for (UserId u = 0; u < kNodes; ++u) {
    const std::size_t shard = std::get<0>(r.visits.at({u, 0}));
    EXPECT_EQ(shard, Engine::ShardOf(u, kNodes));
    EXPECT_GE(shard, prev_shard) << "shards must be contiguous node ranges";
    prev_shard = shard;
  }
  EXPECT_LT(prev_shard, kEngineShards);
}

TEST(EngineParallelTest, ForkStreamIsStableAndDecorrelated) {
  // Pinned derivation: equal inputs agree, any differing input diverges.
  Rng a = Engine::ForkStream(1, 2, 3, Engine::kPlanSalt);
  Rng b = Engine::ForkStream(1, 2, 3, Engine::kPlanSalt);
  EXPECT_EQ(a(), b());
  const std::uint64_t base = Engine::ForkStream(1, 2, 3, Engine::kPlanSalt)();
  EXPECT_NE(Engine::ForkStream(2, 2, 3, Engine::kPlanSalt)(), base);
  EXPECT_NE(Engine::ForkStream(1, 3, 3, Engine::kPlanSalt)(), base);
  EXPECT_NE(Engine::ForkStream(1, 2, 4, Engine::kPlanSalt)(), base);
  EXPECT_NE(Engine::ForkStream(1, 2, 3, Engine::kCommitSalt)(), base);
}

/// Records the draws of every stream the engine hands out: each node's
/// plan stream, each commit's draw from its sender's commit stream and
/// EndCycle's stream. Draws land in per-node slots, and a sender's commits
/// never overlap (its footprint holds it), so the drain on the workers may
/// fill them concurrently.
class StreamProtocol : public CycleProtocol {
 public:
  /// One commit: the cycle it arrived in, the cycle it was sent in and the
  /// value it drew.
  struct CommitDraw {
    std::uint64_t cycle;
    std::uint64_t send_cycle;
    std::uint64_t draw;
  };

  StreamProtocol(std::size_t num_nodes, bool footprints)
      : plan_draws(num_nodes), commit_draws(num_nodes),
        footprints_(footprints) {}

  /// The footprint is the sender alone, so a sender's messages due in one
  /// drain wait on each other, oldest first.
  bool DeclaresCommitFootprints() const override { return footprints_; }
  void PlanCycle(UserId node, const PlanContext& ctx) override {
    plan_draws[node].push_back((*ctx.rng)());
    ctx.Send(std::make_unique<DeliveryMessage>());
  }
  void CommitMessage(UserId sender, DeliveryMessage& /*message*/,
                     const CommitContext& ctx) override {
    commit_draws[sender].push_back(
        CommitDraw{ctx.cycle, ctx.send_cycle, (*ctx.rng)()});
  }
  void EndCycle(std::uint64_t /*cycle*/, Rng* rng) override {
    end_draws.push_back((*rng)());
  }

  std::vector<std::vector<std::uint64_t>> plan_draws;  ///< [node][cycle]
  /// Per sender, in commit order.
  std::vector<std::vector<CommitDraw>> commit_draws;
  std::vector<std::uint64_t> end_draws;  ///< [cycle]

 private:
  bool footprints_;
};

/// Under uniform:0:3 latency senders have several messages due in one
/// drain: their commits must continue the sender's one commit stream of
/// that cycle, oldest message first.
TEST(EngineParallelTest, StreamsAreForkedFromTheirCoordinates) {
  constexpr std::size_t kNodes = 100;
  constexpr std::uint64_t kSeed = 109;
  constexpr std::uint64_t kCycles = 6;
  for (const char* spec : {"zero", "uniform:0:3"}) {
    const LatencySpec latency = test::Latency(spec);
    for (const int threads : {1, 4}) {
      for (const bool footprints : {false, true}) {
        SCOPED_TRACE(std::string(spec) + ", " + std::to_string(threads) +
                     " threads, footprints " + (footprints ? "on" : "off"));
        StreamProtocol protocol(kNodes, footprints);
        WorkerPool pool;
        pool.SetThreads(threads);
        Engine engine(kNodes, kSeed, &protocol, &pool);
        engine.SetLatency(latency);
        PhaseProfiler profiler;
        engine.SetProfiler(&profiler, "streams");
        engine.RunCycles(kCycles);

        std::uint64_t commits = 0;
        std::uint64_t continued = 0;  ///< commits after their stream's first
        for (UserId u = 0; u < kNodes; ++u) {
          ASSERT_EQ(protocol.plan_draws[u].size(), kCycles);
          for (std::uint64_t c = 0; c < kCycles; ++c) {
            EXPECT_EQ(protocol.plan_draws[u][c],
                      Engine::ForkStream(kSeed, c, u, Engine::kPlanSalt)())
                << "node " << u << " cycle " << c;
          }
          const std::vector<StreamProtocol::CommitDraw>& draws =
              protocol.commit_draws[u];
          commits += draws.size();
          Rng stream(0);
          for (std::size_t i = 0; i < draws.size(); ++i) {
            if (i == 0 || draws[i].cycle != draws[i - 1].cycle) {
              if (i > 0) {
                EXPECT_GT(draws[i].cycle, draws[i - 1].cycle);
              }
              stream = Engine::ForkStream(kSeed, draws[i].cycle, u,
                                          Engine::kCommitSalt);
            } else {
              EXPECT_GT(draws[i].send_cycle, draws[i - 1].send_cycle)
                  << "sender " << u << " cycle " << draws[i].cycle;
              ++continued;
            }
            EXPECT_EQ(draws[i].draw, stream())
                << "sender " << u << " cycle " << draws[i].cycle
                << " sent in " << draws[i].send_cycle;
          }
        }
        if (latency.IsZero()) {
          EXPECT_EQ(commits, kNodes * kCycles);
          EXPECT_EQ(continued, 0u);
        } else {
          EXPECT_GT(continued, 0u) << "no sender had several messages due";
        }

        const PhaseBreakdown& profile = profiler.breakdowns().at("streams");
        EXPECT_EQ(profile.drain_pooled_messages + profile.drain_inline_messages,
                  commits);
        if (threads > 1 && footprints) {
          EXPECT_GT(profile.drain_levels, 0u);
          EXPECT_GT(profile.drain_pooled_messages, 0u);
          if (latency.IsZero()) {
            EXPECT_EQ(profile.drain_pooled_messages, kNodes * kCycles);
          }
        } else {
          EXPECT_EQ(profile.drain_levels, 0u);
          EXPECT_EQ(profile.drain_pooled_messages, 0u);
        }
        ASSERT_EQ(protocol.end_draws.size(), kCycles);
        for (std::uint64_t c = 0; c < kCycles; ++c) {
          EXPECT_EQ(protocol.end_draws[c],
                    Engine::ForkStream(kSeed, c, 0, Engine::kCycleSalt)())
              << "cycle " << c;
        }
      }
    }
  }
}

TEST(EngineParallelTest, PlanPhaseActuallyRunsConcurrently) {
  // Not a correctness requirement on 1-core machines, but the concurrency
  // probe must at least never exceed the configured thread count.
  RecordingProtocol protocol(400);
  WorkerPool pool;
  pool.SetThreads(4);
  Engine engine(400, 67, &protocol, &pool);
  engine.RunCycles(2);
  EXPECT_GE(protocol.peak_concurrency.load(), 1);
  EXPECT_LE(protocol.peak_concurrency.load(), 4);
}

TEST(EngineParallelTest, ShardTrafficMailboxesMergeDeterministically) {
  // Record one message per node into the node's shard mailbox from a
  // multi-threaded plan phase; the merged totals must be exact and the
  // global counters untouched before the merge.
  class MailboxProtocol : public CycleProtocol {
   public:
    explicit MailboxProtocol(Network* net) : net_(net) {}
    void PlanCycle(UserId node, const PlanContext& ctx) override {
      net_->ShardTraffic(ctx.shard)
          .Record(MessageType::kRandomViewGossip, node + 1);
    }
    void EndPlan(std::uint64_t /*cycle*/) override {
      before_merge_messages_ = net_->metrics().TotalMessages();
      net_->MergeShardTraffic();
    }
    std::uint64_t before_merge_messages_ = 0;

   private:
    Network* net_;
  };

  constexpr std::size_t kNodes = 301;
  Network net(kNodes);
  MailboxProtocol protocol(&net);
  WorkerPool pool;
  pool.SetThreads(8);
  Engine engine(kNodes, 71, &protocol, &pool);
  engine.RunCycles(1);

  EXPECT_EQ(protocol.before_merge_messages_, 0u)
      << "plan traffic must stay in the mailboxes until the barrier";
  EXPECT_EQ(net.metrics().Of(MessageType::kRandomViewGossip).messages, kNodes);
  // Σ (node + 1) for node in [0, kNodes)
  EXPECT_EQ(net.metrics().Of(MessageType::kRandomViewGossip).bytes,
            kNodes * (kNodes + 1) / 2);
}

// ---------------------------------------------------------------------------
// The delivery drain on the workers.
// ---------------------------------------------------------------------------

/// Every node sends one message per cycle whose commit touches the sender
/// plus up to `max_others` (default two) random users: exactly its
/// footprint, so a variant that widens CommitFootprintOf widens what the
/// commit touches. A commit reads the state of every user it touches,
/// works for a draw-dependent while (so commits that wrongly overlap finish
/// out of order), then appends the same Touch — carrying the next draw of
/// its commit stream and the state it read — to each touched user's log
/// and advances their state. It also
/// counts itself in its worker's lane and emits one trace event. The logs
/// are written only by commits whose footprint holds the user, so they
/// record each user's commit order and what each commit saw.
class FootprintProtocol : public CycleProtocol {
 public:
  struct Touch {
    std::uint64_t cycle;
    UserId sender;
    std::uint64_t send_cycle;
    std::uint64_t draw;
    std::uint64_t seen;  ///< the touched users' states before this commit
    bool operator==(const Touch&) const = default;
  };
  /// Lives on the shard's send-cycle arena, reserved to the most users a
  /// message names, so every message holds arena memory.
  struct Payload : DeliveryMessage {
    Payload(std::pmr::memory_resource* arena, std::size_t max_others)
        : others(arena) {
      others.reserve(max_others);
    }
    std::pmr::vector<UserId> others;
  };

  explicit FootprintProtocol(std::size_t num_nodes, std::size_t max_others = 2)
      : logs(num_nodes),
        num_nodes_(num_nodes),
        max_others_(max_others),
        state_(num_nodes, 0) {}

  bool DeclaresCommitFootprints() const override { return true; }

  void PlanCycle(UserId /*node*/, const PlanContext& ctx) override {
    auto payload = std::make_unique<Payload>(ctx.arena(), max_others_);
    const std::uint64_t others = ctx.rng->NextUint64(max_others_ + 1);
    for (std::uint64_t i = 0; i < others; ++i) {
      payload->others.push_back(
          static_cast<UserId>(ctx.rng->NextUint64(num_nodes_)));
    }
    ctx.Send(std::move(payload));
  }

  void CommitFootprintOf(UserId /*sender*/, const DeliveryMessage& message,
                         CommitFootprint* footprint) const override {
    for (UserId u : static_cast<const Payload&>(message).others) {
      footprint->Add(u);
    }
  }

  void CommitMessage(UserId sender, DeliveryMessage& message,
                     const CommitContext& ctx) override {
    std::vector<UserId> users;
    CommitFootprint touched(&users);
    touched.Add(sender);
    CommitFootprintOf(sender, message, &touched);
    Touch touch{ctx.cycle, sender, ctx.send_cycle, (*ctx.rng)(), 0};
    for (const UserId u : users) touch.seen = touch.seen * 31 + state_[u];
    Rng work(touch.draw);
    for (std::uint64_t i = touch.draw % 2048; i > 0; --i) touch.seen ^= work();
    for (const UserId u : users) {
      logs[u].push_back(touch);
      state_[u] = touch.seen;
    }
    ++lanes[ctx.worker];
    if (ctx.tracing()) {
      TraceEvent event;
      event.cycle = ctx.cycle;
      event.kind = TraceEventKind::kGossipCommitted;
      event.node = sender;
      event.id = users.size();
      event.value = static_cast<std::int64_t>(touch.draw >> 1);
      ctx.Emit(event);
    }
  }

  std::vector<std::vector<Touch>> logs;
  std::array<std::uint64_t, kEngineShards> lanes{};

 private:
  std::size_t num_nodes_;
  std::size_t max_others_;
  std::vector<std::uint64_t> state_;
};

struct DrainRun {
  static constexpr std::uint64_t kCycles = 6;

  std::vector<std::vector<FootprintProtocol::Touch>> logs;
  /// (cycle, node, id, value) of every accepted trace event, in order.
  std::vector<std::tuple<std::uint64_t, UserId, std::uint64_t, std::int64_t>>
      trace;
  std::uint64_t lane_total = 0;
  PhaseBreakdown profile;
  // At each cycle's end: the send cycles with a message in flight, read
  // off the trace's wire events, and the engine's arenas.
  std::array<std::size_t, kCycles> cycles_in_flight{};
  std::array<std::size_t, kCycles> arena_cycles{};
  std::array<std::size_t, kCycles> arena_bytes{};
};

/// Send cycles up to `cycle` with a message still in flight at its end,
/// read off the wire events: enqueued at the send cycle, delivered with
/// their lag.
std::size_t SendCyclesInFlight(const std::vector<TraceEvent>& events,
                               std::uint64_t cycle) {
  std::map<std::uint64_t, std::int64_t> in_flight;  // send cycle -> count
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEventKind::kMessageEnqueued && e.cycle <= cycle) {
      ++in_flight[e.cycle];
    }
    if (e.kind == TraceEventKind::kMessageDelivered && e.cycle <= cycle) {
      --in_flight[e.cycle - static_cast<std::uint64_t>(e.value)];
    }
  }
  return static_cast<std::size_t>(
      std::count_if(in_flight.begin(), in_flight.end(),
                    [](const auto& entry) { return entry.second > 0; }));
}

/// 600 nodes, so every drain holds at least 500 messages under zero
/// latency and goes to the pool. `Protocol` is FootprintProtocol or a
/// variant.
template <class Protocol = FootprintProtocol>
DrainRun RunFootprints(int threads, const LatencySpec& latency) {
  constexpr std::size_t kNodes = 600;
  Protocol protocol(kNodes);
  WorkerPool pool;
  pool.SetThreads(threads);
  auto engine =
      std::make_unique<Engine>(kNodes, /*seed=*/83, &protocol, &pool);
  engine->SetLatency(latency);
  VectorTraceSink sink;
  Tracer tracer(&sink);
  engine->SetTracer(&tracer);
  PhaseProfiler profiler;
  engine->SetProfiler(&profiler, "drain");
  DrainRun run;
  for (std::uint64_t c = 0; c < DrainRun::kCycles; ++c) {
    engine->RunCycles(1);
    run.cycles_in_flight[c] = SendCyclesInFlight(sink.events(), c);
    run.arena_cycles[c] = engine->message_arenas().held_cycles();
    run.arena_bytes[c] = engine->message_arenas().held_bytes();
    if (run.arena_cycles[c] < run.cycles_in_flight[c]) {
      // Messages still in flight point into a released arena: neither
      // commit nor destroy them.
      ADD_FAILURE() << "cycle " << c << ": arenas of "
                    << run.arena_cycles[c] << " send cycles held, "
                    << run.cycles_in_flight[c] << " have messages in flight";
      static_cast<void>(engine.release());
      break;
    }
  }
  run.profile = profiler.breakdowns().at("drain");

  run.logs = protocol.logs;
  for (const TraceEvent& e : sink.events()) {
    if (e.kind != TraceEventKind::kGossipCommitted) continue;
    run.trace.emplace_back(e.cycle, e.node, e.id, e.value);
  }
  run.lane_total =
      std::accumulate(protocol.lanes.begin(), protocol.lanes.end(),
                      std::uint64_t{0});
  return run;
}

/// Senders with more than one message in some drain (they share a stream).
std::size_t SendersWithSeveralDueMessages(const DrainRun& run) {
  std::size_t count = 0;
  for (UserId u = 0; u < run.logs.size(); ++u) {
    std::map<std::uint64_t, int> own_per_cycle;
    for (const auto& touch : run.logs[u]) {
      if (touch.sender == u) ++own_per_cycle[touch.cycle];
    }
    for (const auto& [cycle, n] : own_per_cycle) {
      if (n > 1) {
        ++count;
        break;
      }
    }
  }
  return count;
}

/// The drain on the workers at 2 and 8 threads against the one-thread
/// in-order drain, the oracle. Returns the runs by thread count.
template <class Protocol = FootprintProtocol>
std::map<int, DrainRun> ExpectDrainMatchesInOrder(const LatencySpec& latency) {
  const DrainRun base = RunFootprints<Protocol>(1, latency);
  EXPECT_EQ(base.profile.drain_levels, 0u)
      << "1 thread drains in message order";
  EXPECT_EQ(base.profile.drain_pooled_messages, 0u);
  EXPECT_EQ(base.profile.drain_inline_messages, base.lane_total);
  EXPECT_EQ(base.profile.drain_worker_messages, 0u);
  EXPECT_EQ(base.profile.drain_wait_seconds, 0.0);
  EXPECT_EQ(base.trace.size(), base.lane_total);
  std::map<int, DrainRun> runs;
  for (const int threads : {2, 8}) {
    const DrainRun& run = runs[threads] =
        RunFootprints<Protocol>(threads, latency);
    EXPECT_EQ(run.logs, base.logs) << threads << " threads";
    EXPECT_EQ(run.trace, base.trace) << threads << " threads";
    EXPECT_EQ(run.lane_total, base.lane_total) << threads << " threads";
    EXPECT_GT(run.profile.drain_levels, 0u) << threads << " threads";
    EXPECT_GT(run.profile.drain_pooled_messages, 0u)
        << "no drain reached the pool at " << threads << " threads";
    EXPECT_EQ(run.profile.drain_pooled_messages +
                  run.profile.drain_inline_messages,
              base.lane_total);
    // Where the pooled commits ran depends on how the threads were
    // scheduled.
    EXPECT_LE(run.profile.drain_worker_messages,
              run.profile.drain_pooled_messages);
  }
  return runs;
}

TEST(DependencyDrainTest, MatchesTheSequentialDrainUnderZeroLatency) {
  ExpectDrainMatchesInOrder(LatencySpec{});
}

TEST(DependencyDrainTest, MatchesTheSequentialDrainWhenSendersHaveSeveralDue) {
  const LatencySpec lagged = test::Latency("uniform:0:3");
  EXPECT_GT(SendersWithSeveralDueMessages(RunFootprints(1, lagged)), 0u);
  ExpectDrainMatchesInOrder(lagged);
}

/// Every footprint also holds user 0, so each drain is one chain: every
/// message waits on the one before it.
class HubProtocol : public FootprintProtocol {
 public:
  using FootprintProtocol::FootprintProtocol;
  void CommitFootprintOf(UserId sender, const DeliveryMessage& message,
                         CommitFootprint* footprint) const override {
    footprint->Add(0);
    FootprintProtocol::CommitFootprintOf(sender, message, footprint);
  }
};

/// Footprints of up to 40 users, as the eager mode's messages name one
/// user per gossip.
class WideProtocol : public FootprintProtocol {
 public:
  explicit WideProtocol(std::size_t num_nodes)
      : FootprintProtocol(num_nodes, /*max_others=*/39) {}
};

TEST(DependencyDrainTest, WideFootprintsMatchTheInOrderDrain) {
  for (const char* spec : {"zero", "uniform:0:3"}) {
    SCOPED_TRACE(spec);
    for (const auto& [threads, run] :
         ExpectDrainMatchesInOrder<WideProtocol>(test::Latency(spec))) {
      // Each commit traces its footprint's size.
      std::uint64_t widest = 0;
      for (const auto& event : run.trace) {
        widest = std::max(widest, std::get<2>(event));
      }
      EXPECT_GT(widest, 30u) << threads << " threads";
    }
  }
}

TEST(DependencyDrainTest, HubChainCommitsInMessageOrder) {
  for (const auto& [threads, run] :
       ExpectDrainMatchesInOrder<HubProtocol>(LatencySpec{})) {
    // The longest chain is the whole drain.
    EXPECT_EQ(run.profile.drain_levels, run.lane_total)
        << threads << " threads";
  }
}

/// Every fifth sender's commit spins for about 50 µs before it touches
/// state, so messages that wait on nothing finish out of message order.
class SlowFifthProtocol : public FootprintProtocol {
 public:
  using FootprintProtocol::FootprintProtocol;
  void CommitMessage(UserId sender, DeliveryMessage& message,
                     const CommitContext& ctx) override {
    if (sender % 5 == 0) {
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::microseconds(50);
      while (std::chrono::steady_clock::now() < until) {
      }
    }
    FootprintProtocol::CommitMessage(sender, message, ctx);
  }
};

TEST(DependencyDrainTest, CompletionOrderDoesNotLeak) {
  ExpectDrainMatchesInOrder<SlowFifthProtocol>(LatencySpec{});
}

TEST(DependencyDrainTest,
     ProtocolWithoutFootprintsDrainsInOrderOnCallingThread) {
  class OrderProtocol : public CycleProtocol {
   public:
    void PlanCycle(UserId /*node*/, const PlanContext& ctx) override {
      ctx.Send(std::make_unique<DeliveryMessage>());
    }
    void CommitMessage(UserId sender, DeliveryMessage& /*message*/,
                       const CommitContext& ctx) override {
      commits.emplace_back(ctx.cycle, sender, ctx.send_cycle);
      threads.push_back(std::this_thread::get_id());
      EXPECT_EQ(ctx.worker, 0u);
    }
    std::vector<std::tuple<std::uint64_t, UserId, std::uint64_t>> commits;
    std::vector<std::thread::id> threads;
  };
  const auto run = [](int threads) {
    OrderProtocol protocol;
    WorkerPool pool;
    pool.SetThreads(threads);
    Engine engine(600, /*seed=*/89, &protocol, &pool);
    engine.SetLatency(test::Latency("uniform:0:3"));
    engine.RunCycles(6);
    for (const std::thread::id& id : protocol.threads) {
      EXPECT_EQ(id, std::this_thread::get_id());
    }
    return protocol.commits;
  };
  const auto commits = run(8);
  EXPECT_EQ(commits, run(1));
  // (due, sender, seq): within one arrival cycle senders ascend, and one
  // sender's messages follow their fold order — oldest send first.
  for (std::size_t i = 1; i < commits.size(); ++i) {
    if (std::get<0>(commits[i]) == std::get<0>(commits[i - 1])) {
      EXPECT_LT(std::make_pair(std::get<1>(commits[i - 1]),
                               std::get<2>(commits[i - 1])),
                std::make_pair(std::get<1>(commits[i]),
                               std::get<2>(commits[i])));
    }
  }
}

TEST(DependencyDrainTest, CommitExceptionsPropagate) {
  class ThrowingProtocol : public FootprintProtocol {
   public:
    using FootprintProtocol::FootprintProtocol;
    void CommitMessage(UserId sender, DeliveryMessage& message,
                       const CommitContext& ctx) override {
      if (sender == 417) throw std::runtime_error("commit failed");
      FootprintProtocol::CommitMessage(sender, message, ctx);
    }
  };
  ThrowingProtocol protocol(600);
  WorkerPool pool;
  pool.SetThreads(4);
  Engine engine(600, /*seed=*/97, &protocol, &pool);
  EXPECT_THROW(engine.RunCycles(1), std::runtime_error);
}

/// Every other message of the hub chain waits on the first, whose commit
/// throws: the workers waiting on it must give up, or RunCycles never
/// returns (the test's ctest timeout catches that).
TEST(DependencyDrainTest, CommitExceptionsReleaseWaitingWorkers) {
  class ThrowingHub : public HubProtocol {
   public:
    using HubProtocol::HubProtocol;
    void CommitMessage(UserId sender, DeliveryMessage& message,
                       const CommitContext& ctx) override {
      if (sender == 0) throw std::runtime_error("first commit failed");
      HubProtocol::CommitMessage(sender, message, ctx);
    }
  };
  for (const int threads : {2, 4, 8}) {
    ThrowingHub protocol(600);
    WorkerPool pool;
    pool.SetThreads(threads);
    Engine engine(600, /*seed=*/97, &protocol, &pool);
    EXPECT_THROW(engine.RunCycles(1), std::runtime_error)
        << threads << " threads";
    EXPECT_EQ(std::accumulate(protocol.lanes.begin(), protocol.lanes.end(),
                              std::uint64_t{0}),
              0u)
        << "a message committed before the one it waits on";
  }
}

TEST(DependencyDrainTest, FootprintNamingAnUnknownUserIsRejected) {
  class OutOfRangeProtocol : public FootprintProtocol {
   public:
    using FootprintProtocol::FootprintProtocol;
    void CommitFootprintOf(UserId sender, const DeliveryMessage& /*message*/,
                           CommitFootprint* footprint) const override {
      if (sender == 5) footprint->Add(600);
    }
  };
  OutOfRangeProtocol protocol(600);
  WorkerPool pool;
  pool.SetThreads(2);
  Engine engine(600, /*seed=*/101, &protocol, &pool);
  EXPECT_THROW(engine.RunCycles(1), std::out_of_range);
}

TEST(MessageArenaTest, HeldWhileTheirSendCycleHasAMessageInFlight) {
  for (const char* spec : {"zero", "fixed:2", "uniform:0:3", "lossy:0.3:2"}) {
    SCOPED_TRACE(spec);
    const LatencySpec latency = test::Latency(spec);
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      const DrainRun run = RunFootprints(threads, latency);
      // Released after the drain that delivers a send cycle's last
      // message, and not before.
      ASSERT_EQ(run.arena_cycles, run.cycles_in_flight);
      for (std::uint64_t c = 0; c < DrainRun::kCycles; ++c) {
        EXPECT_EQ(run.arena_bytes[c] == 0, run.cycles_in_flight[c] == 0)
            << "cycle " << c;
      }
      if (!latency.IsZero()) {
        EXPECT_GT(*std::max_element(run.cycles_in_flight.begin(),
                                    run.cycles_in_flight.end()),
                  0u);
      }
    }
    ExpectDrainMatchesInOrder(latency);
  }
}

TEST(MessageArenaTest, FirstBlockHoldsWhatTheShardsLastArenaHandedOut) {
  MessageArenas arenas;
  const auto fill = [&](std::size_t shard, std::size_t pieces) {
    std::pmr::memory_resource* arena = arenas.Open(shard);
    for (std::size_t i = 0; i < pieces; ++i) {
      static_cast<void>(arena->allocate(104, 8));
    }
  };
  fill(3, 200);  // 20,800 bytes in the shard's first arena
  arenas.Seal(/*send_cycle=*/0, /*sent=*/1);
  const std::size_t first = arenas.held_bytes();
  EXPECT_GT(first, 20'800u);
  arenas.Delivered(0);
  arenas.ReleaseDelivered();
  EXPECT_EQ(arenas.held_bytes(), 0u);
  EXPECT_EQ(arenas.held_cycles(), 0u);

  // The next arena's first block takes the 20,800 bytes whole, and a cycle
  // that hands out a little more adds a small block, not a second copy.
  fill(3, 200);
  arenas.Seal(1, 1);
  const std::size_t one_block = arenas.held_bytes();
  EXPECT_LT(one_block, 20'800u + 64);
  arenas.Delivered(1);
  arenas.ReleaseDelivered();
  fill(3, 210);
  arenas.Seal(2, 1);
  EXPECT_LT(arenas.held_bytes(), one_block + 5'000);
  EXPECT_EQ(arenas.peak_bytes(), std::max(first, arenas.held_bytes()));

  // A sent message that is not yet delivered holds its cycle's arenas.
  arenas.ReleaseDelivered();
  EXPECT_EQ(arenas.held_cycles(), 1u);
  fill(5, 1);
  arenas.Seal(3, 2);
  arenas.Delivered(2);
  arenas.Delivered(3);
  arenas.ReleaseDelivered();
  EXPECT_EQ(arenas.held_cycles(), 1u);
  arenas.Delivered(3);
  arenas.ReleaseDelivered();
  EXPECT_EQ(arenas.held_cycles(), 0u);
  EXPECT_EQ(arenas.held_bytes(), 0u);

  // A cycle whose messages were all lost at send time holds nothing.
  fill(5, 1);
  arenas.Seal(4, 0);
  arenas.ReleaseDelivered();
  EXPECT_EQ(arenas.held_cycles(), 0u);
}

TEST(DependencyDrainTest, CommitFootprintSkipsInvalidAndDuplicateUsers) {
  // The drain's flat array already holds an earlier message's footprint,
  // which may name the same users.
  std::vector<UserId> users = {7, 3};
  CommitFootprint footprint(&users);
  footprint.Add(3);
  footprint.Add(kInvalidUser);
  footprint.Add(3);
  footprint.Add(7);
  std::vector<UserId> expected = {7, 3, 3, 7};
  EXPECT_EQ(users, expected);
  // Any number of users.
  for (UserId u = 100; u < 140; ++u) {
    footprint.Add(u);
    expected.push_back(u);
  }
  footprint.Add(120);
  EXPECT_EQ(users, expected);
  EXPECT_EQ(users.size() - 2, 42u);
}

// ---------------------------------------------------------------------------
// The worker pool.
// ---------------------------------------------------------------------------

/// Waits, for at most ten seconds, until `done` holds.
template <typename Done>
void WaitBriefly(Done done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

/// Item counts on both sides of WorkerPool::kMinPooledItems.
constexpr std::array<std::size_t, 7> kItemCounts = {0, 1, 15, 16, 17, 64, 300};

/// What one item saw when it ran.
struct ItemRun {
  std::atomic<int> runs{0};
  std::thread::id thread;
  std::size_t worker = 0;
  bool after_beside = false;  ///< beside() had returned
};

bool ShouldPool(const WorkerPool& pool, std::size_t n) {
  return pool.threads() > 1 && n >= WorkerPool::kMinPooledItems;
}

/// Every item ran once, under a worker index below the thread count that
/// is 0 exactly on the calling thread.
void ExpectEachItemRanOnce(const WorkerPool& pool,
                           const std::vector<ItemRun>& runs,
                           std::thread::id caller) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].runs.load(), 1) << "item " << i;
    EXPECT_LT(runs[i].worker, static_cast<std::size_t>(pool.threads()));
    EXPECT_EQ(runs[i].worker == 0, runs[i].thread == caller) << "item " << i;
  }
}

/// Runs `n` items on `pool` beside the calling thread's own work, as the
/// eager mode closes out its queries beside the refresh wave, and checks
/// where they ran. beside() waits, when the items should pool, until every
/// item ran, so they must run on the workers beside it; otherwise every
/// item must run after it on the calling thread.
void ExpectItemsRunBeside(WorkerPool* pool, std::size_t n) {
  SCOPED_TRACE(std::to_string(pool->threads()) + " threads, " +
               std::to_string(n) + " items beside");
  const std::thread::id caller = std::this_thread::get_id();
  const bool pooled = ShouldPool(*pool, n);
  std::vector<ItemRun> runs(n);
  std::atomic<std::size_t> done{0};
  std::atomic<bool> beside_returned{false};
  int beside_runs = 0;
  EXPECT_EQ(pool->ForEachItem(
                n,
                [&](std::size_t i, std::size_t worker) {
                  ItemRun& run = runs[i];
                  run.runs.fetch_add(1);
                  run.thread = std::this_thread::get_id();
                  run.worker = worker;
                  run.after_beside = beside_returned.load();
                  done.fetch_add(1);
                },
                [&] {
                  EXPECT_EQ(std::this_thread::get_id(), caller);
                  ++beside_runs;
                  if (pooled) WaitBriefly([&] { return done.load() == n; });
                  beside_returned.store(true);
                }),
            pooled);
  EXPECT_EQ(beside_runs, 1);
  ExpectEachItemRanOnce(*pool, runs, caller);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(runs[i].thread == caller, !pooled) << "item " << i;
    EXPECT_EQ(runs[i].after_beside, !pooled) << "item " << i;
  }
}

/// Runs `n` items on `pool` with nothing beside, as the eager mode screens
/// its wave, and checks where they ran. The first item the calling thread
/// takes waits until every other item ran, so when they pool the others
/// must run on the workers.
void ExpectItemsRunJoined(WorkerPool* pool, std::size_t n) {
  SCOPED_TRACE(std::to_string(pool->threads()) + " threads, " +
               std::to_string(n) + " items joined");
  const std::thread::id caller = std::this_thread::get_id();
  const bool pooled = ShouldPool(*pool, n);
  std::vector<ItemRun> joined(n);
  std::atomic<std::size_t> done{0};
  bool caller_waited = false;  // touched only by the calling thread
  EXPECT_EQ(pool->ForEachItem(n,
                              [&](std::size_t i, std::size_t worker) {
                                ItemRun& run = joined[i];
                                run.runs.fetch_add(1);
                                run.thread = std::this_thread::get_id();
                                run.worker = worker;
                                if (pooled && run.thread == caller &&
                                    !caller_waited) {
                                  caller_waited = true;
                                  WaitBriefly(
                                      [&] { return done.load() + 1 == n; });
                                }
                                done.fetch_add(1);
                              }),
            pooled);
  ExpectEachItemRanOnce(*pool, joined, caller);
  const std::size_t on_caller = static_cast<std::size_t>(std::count_if(
      joined.begin(), joined.end(),
      [&](const ItemRun& run) { return run.thread == caller; }));
  if (pooled) {
    EXPECT_LE(on_caller, 1u);
  } else {
    EXPECT_EQ(on_caller, n);
  }
}

void ExpectPoolRunsItemsAt(int threads) {
  WorkerPool pool;
  pool.SetThreads(threads);
  ASSERT_EQ(pool.threads(), threads);
  for (const std::size_t n : kItemCounts) {
    ExpectItemsRunBeside(&pool, n);
    ExpectItemsRunJoined(&pool, n);
  }
}

TEST(WorkerPoolTest, RunsEveryItemOnTheCallingThreadAtOneThread) {
  ExpectPoolRunsItemsAt(1);
}

TEST(WorkerPoolTest, PoolsFromTheInlineSizeAtTwoThreads) {
  ExpectPoolRunsItemsAt(2);
}

TEST(WorkerPoolTest, PoolsFromTheInlineSizeAtEightThreads) {
  ExpectPoolRunsItemsAt(8);
}

/// beside() holds the calling thread until the throwing item ran, so a
/// worker runs it; the other items are slowed so an early rethrow would
/// leave some of them unrun.
TEST(WorkerPoolTest, ItemExceptionOnAWorkerIsRethrownAfterEveryOtherItem) {
  constexpr std::size_t kItems = 64;
  constexpr std::size_t kThrower = 5;
  for (const int threads : {2, 8}) {
    WorkerPool pool;
    pool.SetThreads(threads);
    std::atomic<bool> thrown{false};
    std::thread::id thrower_thread;
    std::atomic<std::size_t> runs{0};
    EXPECT_THROW(
        pool.ForEachItem(
            kItems,
            [&](std::size_t i, std::size_t /*worker*/) {
              if (i == kThrower) {
                thrower_thread = std::this_thread::get_id();
                thrown.store(true);
                throw std::runtime_error("item failed");
              }
              if (i % 8 == 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
              }
              runs.fetch_add(1);
            },
            [&] { WaitBriefly([&] { return thrown.load(); }); }),
        std::runtime_error)
        << threads << " threads";
    EXPECT_NE(thrower_thread, std::this_thread::get_id());
    EXPECT_EQ(runs.load(), kItems - 1)
        << threads << " threads: rethrown before every other item ran";
  }
}

/// Each thread's first item waits until every thread has taken one, so a
/// job sees exactly the pool's threads, each under its own worker index.
TEST(WorkerPoolTest, SetThreadsRespawnsTheWorkersAtTheNewCount) {
  WorkerPool pool;
  for (const int threads : {8, 2, 4, 1}) {
    pool.SetThreads(threads);
    ASSERT_EQ(pool.threads(), threads);
    std::array<std::atomic<int>, kEngineShards> items{};
    std::atomic<int> arrived{0};
    pool.ForEachItem(64, [&](std::size_t /*i*/, std::size_t worker) {
      if (items.at(worker).fetch_add(1) == 0) {
        arrived.fetch_add(1);
        WaitBriefly([&] { return arrived.load() == threads; });
      }
    });
    for (std::size_t worker = 0; worker < kEngineShards; ++worker) {
      EXPECT_EQ(items[worker].load() > 0,
                worker < static_cast<std::size_t>(threads))
          << threads << " threads, worker " << worker;
    }
  }
  // The count is clamped to [1, kEngineShards]; nothing runs at the top.
  pool.SetThreads(0);
  EXPECT_EQ(pool.threads(), 1);
  pool.SetThreads(1000);
  EXPECT_EQ(pool.threads(), static_cast<int>(kEngineShards));
}

// ---------------------------------------------------------------------------
// The end of cycle on the pool the engine borrows.
// ---------------------------------------------------------------------------

/// Every node sends one message a cycle, committed by the in-order drain on
/// the calling thread. In cycle c, EndCycle hands kItemCounts[c] items to
/// the pool the engine borrows through `pass`, as the eager mode's
/// EndCycle does (core/eager_protocol.h). It must run once per cycle, after
/// the drain, on the calling thread and outside any pool job: the pool is
/// not re-entrant, and the plan phase just used it.
class EndCyclePoolProtocol : public CycleProtocol {
 public:
  using Pass = std::function<void(WorkerPool* pool, std::size_t items)>;

  EndCyclePoolProtocol(std::size_t num_nodes, WorkerPool* pool, Pass pass)
      : num_nodes_(num_nodes),
        pool_(pool),
        pass_(std::move(pass)),
        caller_(std::this_thread::get_id()) {}

  void PlanCycle(UserId /*node*/, const PlanContext& ctx) override {
    ctx.Send(std::make_unique<DeliveryMessage>());
  }
  void CommitMessage(UserId /*sender*/, DeliveryMessage& /*message*/,
                     const CommitContext& /*ctx*/) override {
    ++commits_;
  }
  void EndCycle(std::uint64_t cycle, Rng* /*rng*/) override {
    EXPECT_EQ(std::this_thread::get_id(), caller_) << "cycle " << cycle;
    EXPECT_EQ(commits_, num_nodes_ * (cycle + 1)) << "cycle " << cycle;
    pass_(pool_, kItemCounts.at(cycle));
    ++end_cycles;
  }

  std::size_t end_cycles = 0;

 private:
  std::size_t num_nodes_;
  WorkerPool* pool_;
  Pass pass_;
  std::thread::id caller_;
  std::size_t commits_ = 0;  ///< touched only by the calling thread
};

void ExpectEndCyclePassesAt(int threads,
                            const EndCyclePoolProtocol::Pass& pass) {
  constexpr std::size_t kNodes = 64;
  WorkerPool pool;
  pool.SetThreads(threads);
  EndCyclePoolProtocol protocol(kNodes, &pool, pass);
  Engine engine(kNodes, /*seed=*/103, &protocol, &pool);
  PhaseProfiler profiler;
  engine.SetProfiler(&profiler, "end_cycle");
  for (std::size_t cycle = 0; cycle < kItemCounts.size(); ++cycle) {
    engine.RunCycles(1);
  }
  EXPECT_EQ(protocol.end_cycles, kItemCounts.size());
  const PhaseBreakdown& profile = profiler.breakdowns().at("end_cycle");
  EXPECT_EQ(profile.cycles, kItemCounts.size());
  EXPECT_GT(profile.end_cycle_seconds, 0.0) << threads << " threads";
}

TEST(CloseoutTest, RunsOnTheCallingThreadAfterEndCycleAtOneThread) {
  ExpectEndCyclePassesAt(1, ExpectItemsRunBeside);
}

TEST(CloseoutTest, GoesToThePoolBesideEndCycleFromTheInlineSizeAtTwoThreads) {
  ExpectEndCyclePassesAt(2, ExpectItemsRunBeside);
}

TEST(CloseoutTest, GoesToThePoolBesideEndCycleFromTheInlineSizeAtEightThreads) {
  ExpectEndCyclePassesAt(8, ExpectItemsRunBeside);
}

TEST(EndCyclePlanTest, RunsOnTheCallingThreadAtOneThread) {
  ExpectEndCyclePassesAt(1, ExpectItemsRunJoined);
}

TEST(EndCyclePlanTest, GoesToThePoolFromTheInlineSizeAtTwoThreads) {
  ExpectEndCyclePassesAt(2, ExpectItemsRunJoined);
}

TEST(EndCyclePlanTest, GoesToThePoolFromTheInlineSizeAtEightThreads) {
  ExpectEndCyclePassesAt(8, ExpectItemsRunJoined);
}

}  // namespace
}  // namespace p3q
