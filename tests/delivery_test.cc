// The asynchronous delivery layer: latency-model behaviour and parsing, the
// deterministic DeliveryQueue, engine-level message delivery, and the
// system-level guarantees — convergence completes under real latency with a
// bounded cycle overhead, eager queries survive lossy delivery through
// timeout re-issues, and finalized queries drop (and count) late partial
// results.
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/eager_protocol.h"
#include "core/p3q_system.h"
#include "core/query.h"
#include "eval/metrics_eval.h"
#include "sim/checkpoint.h"
#include "sim/delivery.h"
#include "sim/engine.h"
#include "test_util.h"

namespace p3q {
namespace {

// ---------------------------------------------------------------------------
// LatencySpec parsing and validation.
// ---------------------------------------------------------------------------

TEST(LatencySpecParse, RoundTripsEveryModel) {
  for (const char* text :
       {"zero", "fixed:2", "uniform:1:3", "lossy:0.1:4", "lossy:0.105:3"}) {
    LatencySpec spec;
    ASSERT_EQ(ParseLatencySpec(text, &spec), "") << text;
    EXPECT_EQ(spec.Name(), text);
    EXPECT_EQ(spec.Validate(), "");
  }
}

TEST(LatencySpecParse, RejectsMalformedSpecs) {
  LatencySpec spec;
  for (const char* text :
       {"bogus", "fixed", "fixed:x", "fixed:1:2", "uniform:3", "uniform:a:b",
        "lossy:0.5", "lossy:1.5:2", "zero:1",
        // Negative cycle counts must not wrap through strtoull, and NaN
        // loss must not slip through the range check.
        "fixed:-1", "uniform:-1:2", "lossy:0.1:-1", "lossy:nan:2"}) {
    EXPECT_NE(ParseLatencySpec(text, &spec), "") << text;
  }
  // A failed parse must not clobber the output spec.
  ASSERT_EQ(ParseLatencySpec("fixed:7", &spec), "");
  EXPECT_NE(ParseLatencySpec("garbage", &spec), "");
  EXPECT_EQ(spec.Name(), "fixed:7");
}

TEST(LatencySpecParse, ValidateCatchesBadRanges) {
  LatencySpec uniform;
  uniform.kind = LatencyKind::kUniform;
  uniform.lo = 3;
  uniform.hi = 1;
  EXPECT_NE(uniform.Validate(), "");

  LatencySpec lossy;
  lossy.kind = LatencyKind::kLossy;
  lossy.loss = -0.1;
  EXPECT_NE(lossy.Validate(), "");
  lossy.loss = 2.0;
  EXPECT_NE(lossy.Validate(), "");
}

// ---------------------------------------------------------------------------
// Latency models: LatencySpec::Delay.
// ---------------------------------------------------------------------------

TEST(LatencyModels, ZeroIsInstantAndDrawsNothing) {
  const LatencySpec spec;
  EXPECT_TRUE(spec.IsZero());
  // Delay never touches the rng: a null stream must be safe (this is the
  // engine's fast path, which skips forking delivery streams entirely).
  EXPECT_EQ(spec.Delay(nullptr), 0u);
}

TEST(LatencyModels, FixedAlwaysReturnsK) {
  const LatencySpec spec = test::Latency("fixed:4");
  Rng rng(1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(spec.Delay(&rng), 4u);
}

TEST(LatencyModels, UniformStaysInRangeAndIsStreamDeterministic) {
  const LatencySpec spec = test::Latency("uniform:1:3");
  std::set<std::uint64_t> seen;
  Rng a(42), b(42);
  for (int i = 0; i < 200; ++i) {
    const auto d = spec.Delay(&a);
    ASSERT_TRUE(d.has_value());
    EXPECT_GE(*d, 1u);
    EXPECT_LE(*d, 3u);
    seen.insert(*d);
    EXPECT_EQ(spec.Delay(&b), d);  // equal streams, equal draws
  }
  EXPECT_EQ(seen.size(), 3u);  // every value of the range appears
}

TEST(LatencyModels, LossyDropsAtRoughlyTheConfiguredRate) {
  const LatencySpec spec = test::Latency("lossy:0.3:2");
  Rng rng(9);
  int dropped = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const auto d = spec.Delay(&rng);
    if (!d.has_value()) {
      ++dropped;
    } else {
      EXPECT_LE(*d, 2u);
    }
  }
  EXPECT_GT(dropped, n * 3 / 10 / 2);
  EXPECT_LT(dropped, n * 3 * 2 / 10);
}

TEST(LatencyModels, ParsedSpecsDrawThePinnedSequences) {
  // Each kind's first 16 delays off Rng(0x5eed) and the stream's next raw
  // draw, recorded from the per-kind model classes LatencySpec replaced
  // (kLost marks a dropped message). A change in what or how often Delay
  // draws would change every lagged run's output; this pins both.
  constexpr std::uint64_t kLost = ~std::uint64_t{0};
  const struct {
    const char* text;
    std::vector<std::uint64_t> delays;
    std::uint64_t next_raw;
  } kCases[] = {
      {"zero", std::vector<std::uint64_t>(16, 0), 17236385663644093300u},
      {"fixed:2", std::vector<std::uint64_t>(16, 2), 17236385663644093300u},
      {"uniform:1:3",
       {3, 3, 3, 3, 3, 2, 1, 2, 3, 3, 1, 3, 2, 1, 2, 1},
       10335051860934049125u},
      {"lossy:0.1:4",
       {4, 4, 2, 2, 3, 3, 1, 1, 2, 3, 2, kLost, 0, 4, 1, 3},
       11267681626329181556u},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.text);
    LatencySpec spec;
    ASSERT_EQ(ParseLatencySpec(c.text, &spec), "");
    EXPECT_EQ(spec.Name(), c.text);
    Rng rng(0x5eed);
    std::vector<std::uint64_t> delays;
    for (int i = 0; i < 16; ++i) {
      delays.push_back(spec.Delay(&rng).value_or(kLost));
    }
    EXPECT_EQ(delays, c.delays);
    EXPECT_EQ(rng(), c.next_raw);
  }
}

// ---------------------------------------------------------------------------
// DeliveryQueue.
// ---------------------------------------------------------------------------

struct TestPayload : DeliveryMessage {
  explicit TestPayload(int v) : value(v) {}
  int value;
};

int ValueOf(const DeliveryQueue::InFlight& m) {
  return static_cast<const TestPayload&>(*m.payload).value;
}

TEST(DeliveryQueueTest, DrainsInDueSenderSeqOrder) {
  DeliveryQueue q;
  // Senders land out of order across shards and due cycles.
  q.EnqueuePending(/*shard=*/2, /*sender=*/20, /*send=*/0, /*due=*/1,
                   std::make_unique<TestPayload>(1));
  q.EnqueuePending(/*shard=*/0, /*sender=*/5, /*send=*/0, /*due=*/2,
                   std::make_unique<TestPayload>(2));
  q.EnqueuePending(/*shard=*/1, /*sender=*/9, /*send=*/0, /*due=*/1,
                   std::make_unique<TestPayload>(3));
  q.Fold();
  EXPECT_EQ(q.InFlightDepth(), 3u);
  EXPECT_EQ(q.stats().enqueued, 3u);
  EXPECT_EQ(q.stats().max_in_flight, 3u);

  EXPECT_TRUE(q.TakeDue(0).empty());

  const auto due1 = q.TakeDue(1);
  ASSERT_EQ(due1.size(), 2u);
  EXPECT_EQ(due1[0].sender, 9u);  // sender order within the due bucket
  EXPECT_EQ(due1[1].sender, 20u);
  EXPECT_EQ(ValueOf(due1[0]), 3);
  EXPECT_EQ(q.InFlightDepth(), 1u);

  // Overdue buckets drain too (ordered by due cycle first).
  const auto due9 = q.TakeDue(9);
  ASSERT_EQ(due9.size(), 1u);
  EXPECT_EQ(due9[0].sender, 5u);
  EXPECT_EQ(q.stats().delivered, 3u);
  // Lags: two messages of lag 1, one drained 9 cycles after sending.
  EXPECT_EQ(q.stats().lag_histogram[1], 2u);
  EXPECT_EQ(q.stats().lag_histogram[9], 1u);
}

TEST(DeliveryQueueTest, FoldAssignsSeqInShardOrderAndCountsDrops) {
  DeliveryQueue q;
  q.EnqueuePending(/*shard=*/3, /*sender=*/30, 0, 0,
                   std::make_unique<TestPayload>(0));
  q.EnqueuePending(/*shard=*/1, /*sender=*/10, 0, 0,
                   std::make_unique<TestPayload>(0));
  q.RecordPlannedDrop(/*shard=*/2, /*sender=*/20, /*cycle=*/0);
  q.RecordPlannedDrop(/*shard=*/2, /*sender=*/20, /*cycle=*/0);
  q.Fold();
  EXPECT_EQ(q.stats().dropped, 2u);
  const auto due = q.TakeDue(0);
  ASSERT_EQ(due.size(), 2u);
  // Shard 1 folds before shard 3, so its message gets the smaller seq.
  EXPECT_EQ(due[0].sender, 10u);
  EXPECT_LT(due[0].seq, due[1].seq);
}

/// Whether `due` is in the contract's (due cycle, sender, seq) order.
bool InDueSenderSeqOrder(const std::vector<DeliveryQueue::InFlight>& due) {
  return std::is_sorted(due.begin(), due.end(),
                        [](const DeliveryQueue::InFlight& a,
                           const DeliveryQueue::InFlight& b) {
                          return std::tie(a.due_cycle, a.sender, a.seq) <
                                 std::tie(b.due_cycle, b.sender, b.seq);
                        });
}

TEST(DeliveryQueueTest, BucketMixingSendCyclesIsSortedBySender) {
  DeliveryQueue q;
  // Two send cycles land in the due-2 bucket: the second fold appends
  // sender 10 after the first fold's sender 30.
  q.EnqueuePending(/*shard=*/3, /*sender=*/30, /*send=*/0, /*due=*/2,
                   std::make_unique<TestPayload>(1));
  q.Fold();
  q.EnqueuePending(/*shard=*/1, /*sender=*/10, /*send=*/1, /*due=*/2,
                   std::make_unique<TestPayload>(2));
  q.EnqueuePending(/*shard=*/3, /*sender=*/30, /*send=*/1, /*due=*/2,
                   std::make_unique<TestPayload>(3));
  q.Fold();
  const auto due = q.TakeDue(2);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_TRUE(InDueSenderSeqOrder(due));
  EXPECT_EQ(ValueOf(due[0]), 2);
  EXPECT_EQ(ValueOf(due[1]), 1);  // sender 30's older message first
  EXPECT_EQ(ValueOf(due[2]), 3);
}

TEST(DeliveryQueueTest, BucketFoldedInNodeOrderKeepsItsOrder) {
  DeliveryQueue q;
  // One fold appends the shards in shard order, each in node order.
  q.EnqueuePending(/*shard=*/0, /*sender=*/1, 0, 0,
                   std::make_unique<TestPayload>(1));
  q.EnqueuePending(/*shard=*/0, /*sender=*/1, 0, 0,
                   std::make_unique<TestPayload>(2));
  q.EnqueuePending(/*shard=*/0, /*sender=*/4, 0, 0,
                   std::make_unique<TestPayload>(3));
  q.EnqueuePending(/*shard=*/5, /*sender=*/50, 0, 0,
                   std::make_unique<TestPayload>(5));
  q.EnqueuePending(/*shard=*/2, /*sender=*/20, 0, 0,
                   std::make_unique<TestPayload>(4));
  q.Fold();
  const auto due = q.TakeDue(0);
  ASSERT_EQ(due.size(), 5u);
  EXPECT_TRUE(InDueSenderSeqOrder(due));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ValueOf(due[i]), i + 1) << i;
}

TEST(DeliveryStatsTest, PercentilesMergeAndSince) {
  DeliveryStats stats;
  EXPECT_EQ(stats.LagPercentile(0.5), -1.0);
  for (int i = 0; i < 6; ++i) stats.RecordDelivery(0);
  for (int i = 0; i < 3; ++i) stats.RecordDelivery(2);
  stats.RecordDelivery(100);  // clamps into the last bucket
  EXPECT_EQ(stats.LagPercentile(0.50), 0.0);
  EXPECT_EQ(stats.LagPercentile(0.90), 2.0);
  EXPECT_EQ(stats.LagPercentile(1.0),
            static_cast<double>(kDeliveryLagBuckets - 1));

  DeliveryStats other;
  other.enqueued = 5;
  other.max_in_flight = 7;
  other.RecordDelivery(1);
  DeliveryStats merged = stats;
  merged.MergeFrom(other);
  EXPECT_EQ(merged.delivered, 11u);
  EXPECT_EQ(merged.max_in_flight, 7u);
  EXPECT_EQ(merged.lag_histogram[1], 1u);

  const DeliveryStats delta = merged.Since(stats);
  EXPECT_EQ(delta.delivered, 1u);
  EXPECT_EQ(delta.enqueued, 5u);
  EXPECT_EQ(delta.lag_histogram[0], 0u);
}

// ---------------------------------------------------------------------------
// Engine-level delivery.
// ---------------------------------------------------------------------------

/// Sends one message per node per cycle and records every delivery.
class SendingProtocol : public CycleProtocol {
 public:
  struct Delivery {
    UserId sender;
    std::uint64_t sent;
    std::uint64_t arrived;
  };

  void PlanCycle(UserId node, const PlanContext& ctx) override {
    ctx.Send(std::make_unique<TestPayload>(static_cast<int>(node)));
  }

  void CommitMessage(UserId sender, DeliveryMessage& message,
                     const CommitContext& ctx) override {
    EXPECT_EQ(static_cast<TestPayload&>(message).value,
              static_cast<int>(sender));
    deliveries.push_back(Delivery{sender, ctx.send_cycle, ctx.cycle});
  }

  std::vector<Delivery> deliveries;
};

TEST(EngineDelivery, FixedLatencyDeliversExactlyKCyclesLater) {
  constexpr std::size_t kNodes = 6;
  SendingProtocol protocol;
  WorkerPool pool;
  Engine engine(kNodes, /*seed=*/11, &protocol, &pool);
  engine.SetLatency(test::Latency("fixed:2"));
  engine.RunCycles(5);

  // Sent in cycles 0..4; only those sent by cycle 2 have arrived.
  EXPECT_EQ(protocol.deliveries.size(), 3 * kNodes);
  for (const auto& d : protocol.deliveries) {
    EXPECT_EQ(d.arrived - d.sent, 2u);
  }
  // Within one arrival cycle, senders arrive in ascending order.
  for (std::size_t i = 1; i < protocol.deliveries.size(); ++i) {
    const auto& prev = protocol.deliveries[i - 1];
    const auto& cur = protocol.deliveries[i];
    if (prev.arrived == cur.arrived) {
      EXPECT_LT(prev.sender, cur.sender);
    }
  }
  EXPECT_EQ(engine.MessagesInFlight(), 2 * kNodes);
  const DeliveryStats stats = engine.DeliveryStatsTotal();
  EXPECT_EQ(stats.enqueued, 5 * kNodes);
  EXPECT_EQ(stats.delivered, 3 * kNodes);
  EXPECT_EQ(stats.lag_histogram[2], 3 * kNodes);
  EXPECT_EQ(stats.max_in_flight, 3 * kNodes);  // sent + two cycles in flight
}

TEST(EngineDelivery, ZeroLatencyDeliversSameCycleWithNothingInFlight) {
  SendingProtocol protocol;
  WorkerPool pool;
  // No spec set = zero latency.
  Engine engine(4, /*seed=*/11, &protocol, &pool);
  engine.RunCycles(3);
  EXPECT_EQ(protocol.deliveries.size(), 12u);
  for (const auto& d : protocol.deliveries) EXPECT_EQ(d.arrived, d.sent);
  EXPECT_EQ(engine.MessagesInFlight(), 0u);
  EXPECT_EQ(engine.DeliveryStatsTotal().lag_histogram[0], 12u);
}

TEST(EngineDelivery, DeliverySequenceIsThreadCountInvariant) {
  auto run = [](int threads) {
    SendingProtocol protocol;
    WorkerPool pool;
    pool.SetThreads(threads);
    Engine engine(40, /*seed=*/7, &protocol, &pool);
    engine.SetLatency(test::Latency("uniform:0:3"));
    engine.RunCycles(8);
    return protocol.deliveries;
  };
  const auto base = run(1);
  EXPECT_FALSE(base.empty());
  for (const int threads : {2, 8}) {
    const auto other = run(threads);
    ASSERT_EQ(other.size(), base.size()) << threads << " threads";
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(other[i].sender, base[i].sender);
      EXPECT_EQ(other[i].sent, base[i].sent);
      EXPECT_EQ(other[i].arrived, base[i].arrived);
    }
  }
}

TEST(EngineDelivery, LossyModelCountsDrops) {
  SendingProtocol protocol;
  WorkerPool pool;
  Engine engine(10, /*seed=*/23, &protocol, &pool);
  engine.SetLatency(test::Latency("lossy:0.5:0"));
  engine.RunCycles(20);
  const DeliveryStats stats = engine.DeliveryStatsTotal();
  EXPECT_GT(stats.dropped, 40u);  // ~100 of 200 at p=0.5
  EXPECT_LT(stats.dropped, 160u);
  EXPECT_EQ(stats.enqueued + stats.dropped, 200u);
  EXPECT_EQ(stats.delivered, stats.enqueued);  // max_delay 0: all arrived
}

// ---------------------------------------------------------------------------
// System-level: the paper's behaviours under real latency.
// ---------------------------------------------------------------------------

/// Lazy cycles until the success ratio reaches `target`; -1 when the budget
/// runs out first.
int CyclesToConvergence(const LatencySpec& spec, double target, int budget) {
  test::TestSystem env({.users = 100, .seed = 3, .seed_ideal = false});
  env.system->SetLatency(spec);
  const IdealNetworks ideal =
      ComputeIdealNetworks(env.trace.dataset(), env.config.network_size);
  for (int cycle = 1; cycle <= budget; ++cycle) {
    env.system->RunLazyCycles(1);
    if (AverageSuccessRatio(*env.system, ideal) >= target) return cycle;
  }
  return -1;
}

// The tentpole's acceptance test: convergence still completes under
// FixedLatency{2}, with a bounded cycle overhead over instant delivery.
TEST(ConvergenceUnderLatency, FixedLatencyTwoHasBoundedCycleOverhead) {
  const int zero = CyclesToConvergence(LatencySpec{}, 0.85, 150);
  LatencySpec lagged;
  lagged.kind = LatencyKind::kFixed;
  lagged.fixed = 2;
  const int fixed2 = CyclesToConvergence(lagged, 0.85, 150);
  ASSERT_GT(zero, 0) << "baseline never converged";
  ASSERT_GT(fixed2, 0) << "FixedLatency{2} never converged";
  EXPECT_GE(fixed2, zero);  // latency cannot speed convergence up
  // Each gossip round propagates one hop per (1 + latency) cycles, so the
  // overhead is at most the latency factor plus slack.
  EXPECT_LE(fixed2, 3 * zero + 10);
}

TEST(EagerUnderLatency, QueryCompletesUnderFixedLatency) {
  test::TestSystem env({.users = 100});
  LatencySpec lagged;
  lagged.kind = LatencyKind::kFixed;
  lagged.fixed = 2;
  env.system->SetLatency(lagged);

  const QuerySpec spec = env.QueryOf(4);
  ASSERT_FALSE(spec.tags.empty());
  const std::uint64_t qid = env.system->IssueQuery(spec);
  env.system->RunEagerCycles(80);
  EXPECT_TRUE(env.system->QueryComplete(qid));
  const DeliveryStats stats = env.system->DeliveryStatsTotal();
  EXPECT_GT(stats.lag_histogram[2], 0u);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST(EagerUnderLatency, LossyDeliverySurvivesThroughTimeoutReissues) {
  test::TestSystem env({.users = 100});
  LatencySpec lossy;
  lossy.kind = LatencyKind::kLossy;
  lossy.loss = 0.4;
  lossy.max_delay = 1;
  env.system->SetLatency(lossy);

  // A burst of queries so some gossip message is statistically certain to
  // be lost and re-issued.
  std::vector<std::uint64_t> qids;
  for (UserId u = 0; u < 12; ++u) {
    const QuerySpec spec = env.QueryOf(u);
    if (spec.tags.empty()) continue;
    qids.push_back(env.system->IssueQuery(spec));
  }
  ASSERT_FALSE(qids.empty());
  env.system->RunEagerCycles(300);

  for (const std::uint64_t qid : qids) {
    EXPECT_TRUE(env.system->QueryComplete(qid)) << "query " << qid;
  }
  const DeliveryStats stats = env.system->DeliveryStatsTotal();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(env.system->eager().timeout_reissues(), 0u);
}

// Regression for the task-incarnation (epoch) guard: when delays can
// exceed the re-issue deadline (uniform 0..8 vs kEagerRetryCycles = 4),
// a gossip of a dead task incarnation may arrive after the task was
// erased and recreated from another sender's kept portion. Without the
// epoch stamp the stale gossip matched the fresh task (generation reset
// to 0) and double-applied — and its stale `consumed` count could walk
// past the recreated remaining list. Queries must complete cleanly (under
// ASan this also proves no out-of-bounds merge), with the superseded
// arrivals counted as stale.
TEST(EagerUnderLatency, DelaysBeyondTheRetryDeadlineCannotCorruptTasks) {
  test::TestSystem env({.users = 100});
  LatencySpec slow;
  slow.kind = LatencyKind::kUniform;
  slow.lo = 0;
  slow.hi = 8;
  env.system->SetLatency(slow);

  std::vector<std::uint64_t> qids;
  for (UserId u = 0; u < 10; ++u) {
    const QuerySpec spec = env.QueryOf(u);
    if (spec.tags.empty()) continue;
    qids.push_back(env.system->IssueQuery(spec));
  }
  ASSERT_FALSE(qids.empty());
  env.system->RunEagerCycles(400);
  for (const std::uint64_t qid : qids) {
    EXPECT_TRUE(env.system->QueryComplete(qid)) << "query " << qid;
  }
  // The deadline (4 cycles) is shorter than the worst delay, so re-issues
  // and superseded late arrivals must both have happened.
  EXPECT_GT(env.system->eager().timeout_reissues(), 0u);
  EXPECT_GT(env.system->eager().stale_messages_dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Regression: DeliverPartialResult on a finalized query (satellite fix).
// ---------------------------------------------------------------------------

TEST(ActiveQueryLateResults, FinalizedQueryDropsAndCountsLateResults) {
  QuerySpec spec;
  spec.querier = 1;
  spec.tags = {2};
  ActiveQuery query(/*id=*/7, spec, /*k=*/5, /*expected=*/3);

  PartialResultMessage first;
  first.entries = {{ItemId{10}, 4}, {ItemId{11}, 2}};
  first.used_profiles = {2};
  query.DeliverPartialResult(std::move(first));
  query.EndOfCycle(/*complete=*/false);
  EXPECT_FALSE(query.finalized());
  EXPECT_EQ(query.late_results_dropped(), 0u);

  query.EndOfCycle(/*complete=*/true);
  EXPECT_TRUE(query.finalized());
  const std::vector<ItemId> final_items = query.CurrentTopKItems();
  const std::size_t used_before = query.NumUsedProfiles();

  // A partial result limping in after finalization — reachable once
  // delivery lags behind the cycle that completed the query — must be
  // counted and dropped, not silently absorbed.
  PartialResultMessage late;
  late.entries = {{ItemId{99}, 1000}};
  late.used_profiles = {3};
  query.DeliverPartialResult(std::move(late));
  EXPECT_EQ(query.late_results_dropped(), 1u);
  EXPECT_EQ(query.CurrentTopKItems(), final_items);
  EXPECT_EQ(query.NumUsedProfiles(), used_before);
}

/// Three partial results of one query, with scores that make the NRA's
/// state depend on the order its lists were added.
std::vector<PartialResultMessage> ThreeLists() {
  std::vector<PartialResultMessage> lists(3);
  lists[0].entries = {{ItemId{10}, 9}, {ItemId{11}, 5}, {ItemId{12}, 1}};
  lists[0].used_profiles = {4};
  lists[1].entries = {{ItemId{12}, 7}, {ItemId{10}, 3}};
  lists[1].used_profiles = {2, 6};
  lists[2].entries = {{ItemId{11}, 8}, {ItemId{13}, 6}, {ItemId{10}, 2}};
  lists[2].used_profiles = {5};
  lists[0].arrival = 3;
  lists[1].arrival = 5;
  lists[2].arrival = 9;
  return lists;
}

/// A query's snapshots and its checkpoint bytes after two cycles: the
/// lists delivered in `order` in the first, none in the second.
std::pair<std::vector<std::tuple<std::vector<ItemId>, std::size_t, bool>>,
          std::vector<std::uint8_t>>
FoldInOrder(const std::vector<std::size_t>& order) {
  QuerySpec spec;
  spec.querier = 1;
  spec.tags = {2};
  ActiveQuery query(/*id=*/7, spec, /*k=*/2, /*expected=*/4);
  std::vector<PartialResultMessage> lists = ThreeLists();
  for (const std::size_t i : order) {
    query.DeliverPartialResult(std::move(lists[i]));
  }
  query.EndOfCycle(/*complete=*/false);
  CheckpointWriter open;
  query.SaveState(&open);
  query.EndOfCycle(/*complete=*/true);
  std::vector<std::tuple<std::vector<ItemId>, std::size_t, bool>> history;
  for (const QueryCycleSnapshot& snapshot : query.history()) {
    std::vector<ItemId> items;
    for (const RankedItem& r : snapshot.top_k) items.push_back(r.item);
    history.emplace_back(items, snapshot.used_profiles, snapshot.complete);
  }
  return {history, open.buffer()};
}

TEST(ActiveQueryArrivalTest, FoldsListsInArrivalOrder) {
  // Commits on several workers deliver a query's lists in any order; the
  // querier folds them in the order the messages arrived.
  const auto in_order = FoldInOrder({0, 1, 2});
  ASSERT_EQ(in_order.first.size(), 2u);
  EXPECT_EQ(std::get<1>(in_order.first[0]), 4u);
  for (const std::vector<std::size_t>& order :
       {std::vector<std::size_t>{2, 0, 1}, {1, 2, 0}, {2, 1, 0}}) {
    const auto folded = FoldInOrder(order);
    EXPECT_EQ(folded.first, in_order.first);
    EXPECT_TRUE(folded.second == in_order.second)
        << "the NRA's state depends on the delivery order";
  }
}

}  // namespace
}  // namespace p3q
