#include "sim/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/checkpoint.h"
#include "sim/delivery.h"

namespace p3q {
namespace {

/// SplitMix64-based hash chaining for stream derivation: absorbing a word
/// and remixing keeps sibling streams (adjacent cycles/nodes/salts)
/// decorrelated.
std::uint64_t Absorb(std::uint64_t state, std::uint64_t word) {
  std::uint64_t s =
      state ^ (word + 0x9e3779b97f4a7c15ULL + (state << 6) + (state >> 2));
  return SplitMix64(&s);
}

/// Spins a drain worker pauses for before it starts yielding its core, so
/// more workers than cores still make progress.
constexpr std::uint32_t kSpinsBeforeYield = 32;

}  // namespace

/// Commit trace events of a drain on the workers: staged per worker with
/// their message index, accepted in message order once the drain ends.
class CommitEventStage {
 public:
  /// Empties the stage and sizes it for `workers` committing threads.
  void Reset(std::size_t workers) {
    lanes_.resize(workers);
    for (auto& lane : lanes_) lane.clear();
  }

  void Add(std::size_t worker, std::size_t message, const TraceEvent& event) {
    lanes_[worker].push_back(Staged{message, event});
  }

  /// Hands every staged event to `tracer` ordered by message index, and
  /// empties the stage. One message commits on one worker, so its own
  /// events sit together in emit order and the stable sort keeps it.
  void AcceptInMessageOrder(Tracer* tracer) {
    merged_.clear();
    for (auto& lane : lanes_) {
      merged_.insert(merged_.end(), lane.begin(), lane.end());
      lane.clear();
    }
    std::stable_sort(merged_.begin(), merged_.end(),
                     [](const Staged& a, const Staged& b) {
                       return a.message < b.message;
                     });
    for (const Staged& staged : merged_) tracer->Emit(staged.event);
  }

 private:
  struct Staged {
    std::size_t message;
    TraceEvent event;
  };
  std::vector<std::vector<Staged>> lanes_;  ///< one per worker
  std::vector<Staged> merged_;
};

void CommitFootprint::Add(UserId user) {
  if (user == kInvalidUser) return;
  for (std::size_t i = 0; i < size; ++i) {
    if (users[i] == user) return;
  }
  if (size == kMaxUsers) {
    throw std::length_error("commit footprint holds more than " +
                            std::to_string(kMaxUsers) + " users");
  }
  users[size++] = user;
}

void CommitContext::Emit(const TraceEvent& event) const {
  if (stage != nullptr) {
    stage->Add(worker, message, event);
  } else if (tracer != nullptr) {
    tracer->Emit(event);
  }
}

/// The delivery drain (see the file comment of engine.h). Its scratch is
/// sized once and grown geometrically, so a steady-state drain allocates
/// nothing.
class Engine::Drain {
 public:
  /// Commits `due`, given in (due, sender, seq) order: each message once
  /// the earlier messages sharing a user with it have committed, on
  /// whichever worker takes it, when the protocol declares commit
  /// footprints and the pool has more than one thread; else in message
  /// order on the calling thread.
  void Run(Engine* engine, std::vector<DeliveryQueue::InFlight>& due);

 private:
  /// One due message's place among the drain's dependencies.
  struct Link {
    /// The later messages that wait on this one: at most the next message
    /// of each user in its footprint.
    std::array<std::uint32_t, CommitFootprint::kMaxUsers> successors;
    std::uint32_t num_successors;
    /// Messages in the longest footprint chain that ends with this one.
    std::uint32_t depth;
    /// Predecessors not yet committed.
    std::atomic<std::uint32_t> waiting;
  };

  /// Forks one commit stream per run of consecutive messages from one
  /// sender and names every message's stream.
  void AssignStreams(const Engine& engine,
                     const std::vector<DeliveryQueue::InFlight>& due);
  /// Makes every message wait on the previous message of each user in its
  /// footprint, and publishes the messages with nothing to wait on into the
  /// first ready slots, in message order. Returns the longest footprint
  /// chain, in messages.
  std::size_t AssignDependencies(
      const Engine& engine, const std::vector<DeliveryQueue::InFlight>& due);
  /// Zeroes the last_message_ marks of the first `count` messages'
  /// footprints.
  void ClearMarks(std::size_t count);
  /// Waits until ready slot `k` is published and returns it (message + 1),
  /// or returns 0 once a commit of the drain has failed. While profiling,
  /// adds the time it waited to `worker`'s slot.
  std::uint32_t AwaitReady(std::size_t k, std::size_t worker, bool profiled);
  /// After message `i` committed: publishes every successor that waited on
  /// it last.
  void Release(std::size_t i);

  /// Per user: one past the last message so far in this drain whose
  /// footprint holds the user (0: none). All zero between drains, and sized
  /// on the first drain that assigns dependencies.
  std::vector<std::uint32_t> last_message_;
  // Per due message.
  std::vector<CommitFootprint> footprints_;
  std::vector<std::uint32_t> stream_of_;
  std::vector<Rng> streams_;  ///< one per run of one sender's messages
  // Per due message, made anew at twice the size when a drain outgrows
  // them (atomics do not move).
  std::vector<Link> links_;
  /// The ready slots, filled in the order messages become ready: message
  /// + 1, or 0 while unpublished. Slots [0, ready_end_) are taken.
  std::vector<std::atomic<std::uint32_t>> ready_;
  std::atomic<std::uint32_t> ready_end_{0};
  /// Set by a commit that throws, so the workers waiting on its
  /// successors give up instead of waiting forever.
  std::atomic<bool> failed_{false};
  /// Per worker, while profiling: the seconds it waited for a ready slot.
  std::vector<double> wait_seconds_;
  CommitEventStage stage_;
};

void Engine::Drain::ClearMarks(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const CommitFootprint& footprint = footprints_[i];
    for (std::size_t k = 0; k < footprint.size; ++k) {
      last_message_[footprint.users[k]] = 0;
    }
  }
}

void Engine::Drain::AssignStreams(
    const Engine& engine, const std::vector<DeliveryQueue::InFlight>& due) {
  stream_of_.resize(due.size());
  streams_.clear();
  for (std::size_t i = 0; i < due.size(); ++i) {
    if (i == 0 || due[i].sender != due[i - 1].sender) {
      streams_.push_back(
          ForkStream(engine.seed_, engine.cycle_, due[i].sender, kCommitSalt));
    }
    stream_of_[i] = static_cast<std::uint32_t>(streams_.size() - 1);
  }
}

std::size_t Engine::Drain::AssignDependencies(
    const Engine& engine, const std::vector<DeliveryQueue::InFlight>& due) {
  const std::size_t n = due.size();
  last_message_.resize(engine.num_nodes_);
  footprints_.assign(n, CommitFootprint{});
  if (links_.size() < n) {
    const std::size_t size = std::max(n, 2 * links_.size());
    links_ = std::vector<Link>(size);
    ready_ = std::vector<std::atomic<std::uint32_t>>(size);
  }
  std::uint32_t longest = 0;
  std::uint32_t ready = 0;
  std::size_t i = 0;
  try {
    for (; i < n; ++i) {
      const DeliveryQueue::InFlight& message = due[i];
      CommitFootprint& footprint = footprints_[i];
      // The sender is always in the footprint: its messages share a stream.
      footprint.Add(message.sender);
      engine.protocol_->CommitFootprintOf(message.sender, *message.payload,
                                          &footprint);
      Link& link = links_[i];
      link.num_successors = 0;
      link.depth = 1;
      std::uint32_t waiting = 0;
      for (std::size_t k = 0; k < footprint.size; ++k) {
        const UserId user = footprint.users[k];
        if (user >= last_message_.size()) {
          throw std::out_of_range("commit footprint names user " +
                                  std::to_string(user) + " of " +
                                  std::to_string(last_message_.size()));
        }
        if (last_message_[user] == 0) continue;
        Link& previous = links_[last_message_[user] - 1];
        // Two users of this message may share their previous message.
        if (previous.num_successors > 0 &&
            previous.successors[previous.num_successors - 1] == i) {
          continue;
        }
        previous.successors[previous.num_successors++] =
            static_cast<std::uint32_t>(i);
        ++waiting;
        link.depth = std::max(link.depth, previous.depth + 1);
      }
      for (std::size_t k = 0; k < footprint.size; ++k) {
        last_message_[footprint.users[k]] = static_cast<std::uint32_t>(i + 1);
      }
      link.waiting.store(waiting, std::memory_order_relaxed);
      if (waiting == 0) {
        ready_[ready++].store(static_cast<std::uint32_t>(i + 1),
                              std::memory_order_relaxed);
      }
      longest = std::max(longest, link.depth);
    }
  } catch (...) {
    ClearMarks(i);
    throw;
  }
  ClearMarks(n);
  for (std::size_t k = ready; k < n; ++k) {
    ready_[k].store(0, std::memory_order_relaxed);
  }
  ready_end_.store(ready, std::memory_order_relaxed);
  return longest;
}

std::uint32_t Engine::Drain::AwaitReady(std::size_t k, std::size_t worker,
                                        bool profiled) {
  std::uint32_t ready = ready_[k].load(std::memory_order_acquire);
  if (ready != 0) return ready;
  using Clock = std::chrono::steady_clock;
  const auto start = profiled ? Clock::now() : Clock::time_point();
  for (std::uint32_t spins = 0; ready == 0;
       ready = ready_[k].load(std::memory_order_acquire)) {
    if (failed_.load(std::memory_order_relaxed)) break;
    if (++spins > kSpinsBeforeYield) {
      std::this_thread::yield();
    } else {
#if defined(__x86_64__) || defined(_M_X64)
      _mm_pause();
#endif
    }
  }
  if (profiled) {
    wait_seconds_[worker] +=
        std::chrono::duration<double>(Clock::now() - start).count();
  }
  return ready;
}

void Engine::Drain::Release(std::size_t i) {
  const Link& link = links_[i];
  for (std::uint32_t s = 0; s < link.num_successors; ++s) {
    const std::uint32_t next = link.successors[s];
    // The last predecessor to commit acquires the others' commits with the
    // count, and hands all of them on with the slot.
    if (links_[next].waiting.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ready_[ready_end_.fetch_add(1, std::memory_order_relaxed)].store(
          next + 1, std::memory_order_release);
    }
  }
}

void Engine::Drain::Run(Engine* engine,
                        std::vector<DeliveryQueue::InFlight>& due) {
  AssignStreams(*engine, due);
  const std::size_t n = due.size();
  const std::size_t threads =
      static_cast<std::size_t>(engine->pool_->threads());
  const bool released =
      threads > 1 && engine->protocol_->DeclaresCommitFootprints();
  const std::size_t longest = released ? AssignDependencies(*engine, due) : 0;
  Tracer* tracer = engine->tracer_;
  // The in-order drain hands its events to the tracer as they come.
  CommitEventStage* stage = released && tracer != nullptr ? &stage_ : nullptr;
  if (stage != nullptr) stage->Reset(threads);
  PhaseBreakdown* profile = engine->profile_;
  if (profile != nullptr) wait_seconds_.assign(threads, 0.0);
  const auto commit = [&](std::size_t i, std::size_t worker) {
    DeliveryQueue::InFlight& message = due[i];
    CommitContext ctx;
    ctx.send_cycle = message.send_cycle;
    ctx.cycle = engine->cycle_;
    ctx.rng = &streams_[stream_of_[i]];
    ctx.worker = worker;
    ctx.tracer = tracer;
    ctx.stage = stage;
    ctx.message = i;
    engine->protocol_->CommitMessage(message.sender, *message.payload, ctx);
  };
  bool pooled = false;
  try {
    if (!released) {
      for (std::size_t i = 0; i < n; ++i) commit(i, 0);
    } else {
      failed_.store(false, std::memory_order_relaxed);
      pooled = engine->pool_->ForEachItem(
          n, [&](std::size_t k, std::size_t worker) {
            const std::uint32_t ready =
                AwaitReady(k, worker, profile != nullptr);
            if (ready == 0) return;  // a commit failed
            try {
              commit(ready - 1, worker);
            } catch (...) {
              failed_.store(true, std::memory_order_relaxed);
              throw;
            }
            Release(ready - 1);
          });
    }
  } catch (...) {
    // Best effort for the flight recorder: keep what did commit.
    if (stage != nullptr) stage->AcceptInMessageOrder(tracer);
    throw;
  }
  if (stage != nullptr) stage->AcceptInMessageOrder(tracer);
  if (profile != nullptr) {
    profile->drain_levels += longest;
    (pooled ? profile->drain_pooled_messages
            : profile->drain_inline_messages) += n;
    for (const double seconds : wait_seconds_) {
      profile->drain_wait_seconds += seconds;
    }
  }
}

void CycleProtocol::EncodeMessage(const DeliveryMessage&,
                                  CheckpointWriter*) const {
  throw CheckpointError(
      "protocol cannot encode delivery messages (EncodeMessage not "
      "overridden)");
}

std::unique_ptr<DeliveryMessage> CycleProtocol::DecodeMessage(
    CheckpointReader*) const {
  throw CheckpointError(
      "protocol cannot decode delivery messages (DecodeMessage not "
      "overridden)");
}

void PlanContext::Send(std::unique_ptr<DeliveryMessage> message) const {
  std::uint64_t delay = 0;
  if (latency != nullptr) {
    const std::optional<std::uint64_t> d = latency->Delay(delivery_rng);
    if (!d.has_value()) {
      queue->RecordPlannedDrop(shard, node, cycle);
      return;
    }
    delay = *d;
  }
  queue->EnqueuePending(shard, node, cycle, cycle + delay,
                        std::move(message));
}

std::pmr::memory_resource* PlanContext::arena() const {
  return arenas->Open(shard);
}

Engine::Engine(std::size_t num_nodes, std::uint64_t seed,
               CycleProtocol* protocol, WorkerPool* pool)
    : protocol_(protocol),
      pool_(pool),
      arenas_(std::make_unique<MessageArenas>()),
      queue_(std::make_unique<DeliveryQueue>()),
      num_nodes_(num_nodes),
      seed_(seed),
      drain_(std::make_unique<Drain>()) {}

Engine::~Engine() = default;

void Engine::SetTracer(Tracer* tracer) {
  tracer_ = tracer;
  queue_->SetTracer(tracer);
}

void Engine::SetProfiler(PhaseProfiler* profiler, const std::string& label) {
  profile_ = profiler != nullptr ? profiler->Breakdown(label) : nullptr;
}

DeliveryStats Engine::DeliveryStatsTotal() const { return queue_->stats(); }

std::size_t Engine::MessagesInFlight() const {
  return queue_->InFlightDepth();
}

Rng Engine::ForkStream(std::uint64_t seed, std::uint64_t cycle, UserId node,
                       std::uint64_t salt) {
  std::uint64_t h = Absorb(seed, salt);
  h = Absorb(h, cycle);
  h = Absorb(h, static_cast<std::uint64_t>(node));
  return Rng(h);
}

std::pair<UserId, UserId> Engine::ShardRange(std::size_t shard) const {
  const std::size_t per = ShardWidth(num_nodes_);
  const std::size_t lo = std::min(shard * per, num_nodes_);
  const std::size_t hi = std::min(lo + per, num_nodes_);
  return {static_cast<UserId>(lo), static_cast<UserId>(hi)};
}

void Engine::RunPlanPhase() {
  // Zero latency takes the fast path: no spec consultation, no
  // delivery-stream forks, every message due this cycle.
  const LatencySpec* latency = latency_.IsZero() ? nullptr : &latency_;
  // Per-shard wall-clock is only tracked while profiling; each slot is
  // written by the one thread that planned the shard, so no synchronization
  // is needed beyond the pool's barrier.
  const bool profiled = profile_ != nullptr;
  if (profiled) shard_plan_seconds_.fill(0.0);
  // So the shards go to the workers whenever the pool has more than one
  // thread.
  static_assert(kEngineShards >= WorkerPool::kMinPooledItems);
  const auto plan_shard = [&](std::size_t s, std::size_t /*worker*/) {
    const auto shard_start = profiled
                                 ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point();
    const auto [first, last] = ShardRange(s);
    PlanContext ctx;
    ctx.cycle = cycle_;
    ctx.shard = s;
    ctx.queue = queue_.get();
    ctx.arenas = arenas_.get();
    ctx.latency = latency;
    for (UserId u = first; u < last; ++u) {
      if (!protocol_->ActiveInCycle(u)) continue;
      Rng rng = ForkStream(seed_, cycle_, u, kPlanSalt);
      Rng delivery_rng(0);
      if (latency != nullptr) {
        delivery_rng = ForkStream(seed_, cycle_, u, kDeliverySalt);
        ctx.delivery_rng = &delivery_rng;
      }
      ctx.node = u;
      ctx.rng = &rng;
      protocol_->PlanCycle(u, ctx);
    }
    if (profiled) {
      shard_plan_seconds_[s] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        shard_start)
              .count();
    }
  };
  pool_->ForEachItem(kEngineShards, plan_shard);
}

void Engine::DrainDueMessages() {
  using Clock = std::chrono::steady_clock;
  const bool profiled = profile_ != nullptr;
  const auto t0 = profiled ? Clock::now() : Clock::time_point();
  std::vector<DeliveryQueue::InFlight> due = queue_->TakeDue(cycle_);
  for (const DeliveryQueue::InFlight& message : due) {
    arenas_->Delivered(message.send_cycle);
  }
  const auto t1 = profiled ? Clock::now() : Clock::time_point();
  if (!due.empty()) drain_->Run(this, due);
  // The teardown: the calling thread destroys every committed message (each
  // commit already dropped its snapshot handles), then releases the arenas
  // of the send cycles that have nothing left in flight.
  const auto t2 = profiled ? Clock::now() : Clock::time_point();
  due.clear();
  arenas_->ReleaseDelivered();
  if (!profiled) return;
  const auto sec = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
  };
  profile_->drain_take_seconds += sec(t0, t1);
  profile_->drain_teardown_seconds += sec(t2, Clock::now());
}

void Engine::RunOneCycle() {
  using Clock = std::chrono::steady_clock;
  const bool profiled = profile_ != nullptr;
  const auto t0 = profiled ? Clock::now() : Clock::time_point();
  RunPlanPhase();
  const auto t1 = profiled ? Clock::now() : Clock::time_point();
  protocol_->EndPlan(cycle_);
  // The trace fold sits at the same barrier as the mailbox merges and the
  // queue fold, so the accept order is (shard, emit order) — independent of
  // the thread count, like every other folded structure.
  if (tracer_ != nullptr) tracer_->FoldShards();
  arenas_->Seal(cycle_, queue_->Fold());
  const auto t2 = profiled ? Clock::now() : Clock::time_point();
  DrainDueMessages();
  const auto t3 = profiled ? Clock::now() : Clock::time_point();
  Rng end_rng = ForkStream(seed_, cycle_, 0, kCycleSalt);
  protocol_->EndCycle(cycle_, &end_rng);
  if (profiled) {
    const auto t4 = Clock::now();
    double shard_max = 0.0;
    double shard_sum = 0.0;
    std::uint64_t active_shards = 0;
    for (std::size_t s = 0; s < kEngineShards; ++s) {
      const auto [first, last] = ShardRange(s);
      if (first >= last) continue;
      ++active_shards;
      shard_max = std::max(shard_max, shard_plan_seconds_[s]);
      shard_sum += shard_plan_seconds_[s];
    }
    const auto sec = [](Clock::time_point from, Clock::time_point to) {
      return std::chrono::duration<double>(to - from).count();
    };
    profile_->AddCycle(sec(t0, t1), sec(t1, t2), sec(t2, t3), sec(t3, t4),
                       shard_max, shard_sum, active_shards);
  }
  ++cycle_;
}

template <class Io, class Self>
void Engine::Transfer(Io& io, Self& self) {
  std::uint64_t seed = self.seed_;
  io.U64(seed);
  if (seed != self.seed_) {
    throw CheckpointError(
        "checkpoint engine seed does not match this run (different master "
        "seed or engine construction order)");
  }
  io.U64(self.cycle_);
  std::uint64_t num_queues = 1;  // a format field since v1
  io.U64(num_queues);
  if (num_queues != 1) {
    throw CheckpointError("checkpoint engine has " +
                          std::to_string(num_queues) +
                          " protocol queues; an engine runs exactly one");
  }
  TransferState(io, *self.queue_, *self.protocol_);
  io.Sentinel("engine");
}

void Engine::SaveState(CheckpointWriter* out) const { Transfer(*out, *this); }

void Engine::LoadState(CheckpointReader* in) {
  Transfer(*in, *this);
  // The messages the load replaced are gone; the decoded ones are
  // heap-backed.
  arenas_->ReleaseAll();
}

void Engine::RunCycles(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    if (tracer_ == nullptr) {
      RunOneCycle();
      continue;
    }
    try {
      RunOneCycle();
    } catch (...) {
      // Flight recorder: fold whatever the plan threads had buffered (best
      // effort — the cycle was cut short, so the tail may be partial) and
      // dump the ring so the last events before the failure survive.
      tracer_->FoldShards();
      tracer_->DumpRing();
      throw;
    }
  }
}

}  // namespace p3q
