// Counter records (common/counters.h) fold, render and checkpoint through
// one list of fields each. These tests pin what the lists reproduce: the
// --profile JSON and the checkpoint bytes of hand-filled records, and the
// hand-written folds of tests/counter_oracle.h on seeded random pairs.
#include <array>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "core/query.h"
#include "counter_oracle.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/checkpoint.h"
#include "sim/metrics.h"

namespace p3q {
namespace {

// Hand-filled records: distinct values in every field, non-round seconds,
// several histogram buckets.

PhaseBreakdown FilledBreakdown(std::uint64_t salt) {
  PhaseBreakdown b;
  b.cycles = 37 + salt;
  b.plan_seconds = 1.234567891 + 0.1 * static_cast<double>(salt);
  b.barrier_seconds = 0.0456789;
  b.drain_seconds = 2.718281828;
  b.drain_take_seconds = 0.314159265;
  b.drain_teardown_seconds = 0.161803399;
  b.drain_levels = 412 + salt;
  b.drain_pooled_messages = 98765;
  b.drain_inline_messages = 4321;
  b.drain_wait_seconds = 0.693147181;
  b.end_cycle_seconds = 0.577215665;
  b.shard_plan_max_seconds = 0.867530901;
  b.shard_plan_sum_seconds = 3.141592654;
  b.shards_per_cycle = 5 + salt;
  b.max_imbalance = 1.732050808;
  b.imbalance_histogram[0] = 11;
  b.imbalance_histogram[1] = 7 + salt;
  b.imbalance_histogram[3] = 2;
  b.imbalance_histogram[kImbalanceBuckets - 1] = 1;
  return b;
}

Metrics FilledMetrics() {
  Metrics m;
  for (int t = 0; t < static_cast<int>(MessageType::kCount); ++t) {
    for (int i = 0; i <= t; ++i) {
      m.Record(static_cast<MessageType>(t), 1000 * (t + 1) + 17 * i);
    }
  }
  return m;
}

DeliveryStats FilledDelivery() {
  DeliveryStats d;
  d.enqueued = 901;
  d.dropped = 23;
  d.stale_dropped = 45;
  d.max_in_flight = 312;
  for (std::uint64_t lag : {0, 1, 1, 2, 2, 2, 7, 40}) d.RecordDelivery(lag);
  return d;
}

QueryLatencyStats FilledLatency() {
  QueryLatencyStats q;
  q.issued = 88;
  q.abandoned = 6;
  for (std::uint64_t latency : {1, 3, 3, 9, 70}) q.RecordCompletion(latency, 4);
  for (std::uint64_t latency : {0, 1, 1, 2}) q.RecordFirstResult(latency);
  return q;
}

QueryTraffic FilledTraffic() {
  QueryTraffic t;
  t.forwarded_list_bytes = 4096;
  t.returned_list_bytes = 2048 + 3;
  t.partial_result_bytes = 65536 + 11;
  t.forward_messages = 19;
  t.return_messages = 17;
  t.partial_result_messages = 23;
  return t;
}

Tracer::KindCounts FilledTraceCounts() {
  Tracer::KindCounts counts{};
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] = 3 * i * i + 1;
  return counts;
}

TEST(CounterRecordTest, PhaseBreakdownToJsonKeepsEveryByte) {
  EXPECT_EQ(PhaseBreakdownToJson(FilledBreakdown(0)),
      "{\"cycles\": 37, \"plan_seconds\": 1.234568, "
      "\"barrier_seconds\": 0.045679, \"drain_seconds\": 2.718282, "
      "\"drain_take_seconds\": 0.314159, \"drain_teardown_seconds\": 0.161803, "
      "\"drain_levels\": 412, \"drain_pooled_messages\": 98765, "
      "\"drain_inline_messages\": 4321, \"drain_wait_seconds\": 0.693147, "
      "\"end_cycle_seconds\": 0.577216, "
      "\"total_seconds\": 4.575744, \"shard_plan_max_seconds\": 0.867531, "
      "\"shard_plan_sum_seconds\": 3.141593, \"active_shards\": 5, "
      "\"mean_imbalance\": 1.381, \"max_imbalance\": 1.732, "
      "\"imbalance_histogram\": [11, 7, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "
      "1]}");
}

TEST(CounterRecordTest, PhaseProfilerToJsonKeepsEveryByte) {
  PhaseProfiler profiler;
  *profiler.Breakdown("lazy") = FilledBreakdown(0);
  *profiler.Breakdown("eager") = FilledBreakdown(2);
  EXPECT_EQ(PhaseProfilerToJson(profiler),
      "{\n"
      "  \"engines\": {\n"
      "    \"eager\": {\"cycles\": 39, \"plan_seconds\": 1.434568, "
      "\"barrier_seconds\": 0.045679, \"drain_seconds\": 2.718282, "
      "\"drain_take_seconds\": 0.314159, \"drain_teardown_seconds\": 0.161803, "
      "\"drain_levels\": 414, \"drain_pooled_messages\": 98765, "
      "\"drain_inline_messages\": 4321, \"drain_wait_seconds\": 0.693147, "
      "\"end_cycle_seconds\": 0.577216, "
      "\"total_seconds\": 4.775744, \"shard_plan_max_seconds\": 0.867531, "
      "\"shard_plan_sum_seconds\": 3.141593, \"active_shards\": 7, "
      "\"mean_imbalance\": 1.933, \"max_imbalance\": 1.732, "
      "\"imbalance_histogram\": [11, 9, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "
      "1]},\n"
      "    \"lazy\": {\"cycles\": 37, \"plan_seconds\": 1.234568, "
      "\"barrier_seconds\": 0.045679, \"drain_seconds\": 2.718282, "
      "\"drain_take_seconds\": 0.314159, \"drain_teardown_seconds\": 0.161803, "
      "\"drain_levels\": 412, \"drain_pooled_messages\": 98765, "
      "\"drain_inline_messages\": 4321, \"drain_wait_seconds\": 0.693147, "
      "\"end_cycle_seconds\": 0.577216, "
      "\"total_seconds\": 4.575744, \"shard_plan_max_seconds\": 0.867531, "
      "\"shard_plan_sum_seconds\": 3.141593, \"active_shards\": 5, "
      "\"mean_imbalance\": 1.381, \"max_imbalance\": 1.732, "
      "\"imbalance_histogram\": [11, 7, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "
      "1]}\n"
      "  }\n"
      "}\n");
}

/// Every member of a counter record is 8 bytes wide, with no padding, so a
/// record is an array of 8-byte words.
template <class R>
using Words = std::array<std::uint64_t, sizeof(R) / 8>;

template <class R>
Words<R> WordsOf(const R& record) {
  Words<R> words;
  std::memcpy(words.data(), &record, sizeof(R));
  return words;
}

template <class R>
R FromWords(const Words<R>& words) {
  R record;
  std::memcpy(static_cast<void*>(&record), words.data(), sizeof(R));
  return record;
}

TEST(CounterRecordTest, CheckpointLayoutsKeepEveryByte) {
  const Metrics metrics = FilledMetrics();
  const DeliveryStats delivery = FilledDelivery();
  const QueryLatencyStats latency = FilledLatency();
  const QueryTraffic traffic = FilledTraffic();
  const Tracer::KindCounts counts = FilledTraceCounts();
  CheckpointWriter out;
  Transfer(out, metrics);
  Transfer(out, delivery);
  Transfer(out, latency);
  Transfer(out, traffic);
  Transfer(out, counts);
  // Recorded from the hand-written layouts the lists replaced.
  ASSERT_EQ(out.size(), 1656u);
  EXPECT_EQ(Crc32(out.buffer().data(), out.buffer().size()), 0xffe62be3u);

  CheckpointReader in(out.buffer().data(), out.buffer().size());
  Metrics metrics_back;
  DeliveryStats delivery_back;
  QueryLatencyStats latency_back;
  QueryTraffic traffic_back;
  Tracer::KindCounts counts_back{};
  Transfer(in, metrics_back);
  Transfer(in, delivery_back);
  Transfer(in, latency_back);
  Transfer(in, traffic_back);
  Transfer(in, counts_back);
  in.ExpectEnd();
  EXPECT_EQ(WordsOf(oracle::CountersOf(metrics_back)),
            WordsOf(oracle::CountersOf(metrics)));
  EXPECT_EQ(WordsOf(delivery_back), WordsOf(delivery));
  EXPECT_EQ(WordsOf(latency_back), WordsOf(latency));
  EXPECT_EQ(WordsOf(traffic_back), WordsOf(traffic));
  EXPECT_EQ(counts_back, counts);
}

/// Every word a random count below 2^40, so sums cannot wrap.
template <class R>
R RandomCounts(std::mt19937_64& rng) {
  Words<R> words;
  for (std::uint64_t& word : words) word = rng() >> 24;
  return FromWords<R>(words);
}

PhaseBreakdown RandomBreakdown(std::mt19937_64& rng) {
  const auto count = [&] { return rng() >> 24; };
  const auto seconds = [&] {
    return static_cast<double>(rng() >> 11) * 0x1p-53 * 100.0;
  };
  PhaseBreakdown b;
  b.cycles = count();
  b.plan_seconds = seconds();
  b.barrier_seconds = seconds();
  b.drain_seconds = seconds();
  b.drain_take_seconds = seconds();
  b.drain_teardown_seconds = seconds();
  b.drain_levels = count();
  b.drain_pooled_messages = count();
  b.drain_inline_messages = count();
  b.drain_wait_seconds = seconds();
  b.end_cycle_seconds = seconds();
  b.shard_plan_max_seconds = seconds();
  b.shard_plan_sum_seconds = seconds();
  b.shards_per_cycle = rng() % 65;
  b.max_imbalance = 1.0 + seconds();
  for (std::uint64_t& bucket : b.imbalance_histogram) bucket = count();
  return b;
}

/// Runs 1,000 seeded random pairs of R through R's MergeFrom, Since and
/// Precedes and through the oracle's, which sees R as `to_oracle(R)`. Each
/// pair merges `a` and `b`, then takes the merge's delta since `a`. With
/// kCheckPrecedes, every third pair first raises one word of `a` past the
/// merge, which makes Precedes false unless the word is a peak, and Since
/// runs only when Precedes holds. The profiler has no Precedes oracle, so
/// its pairs stay ordered.
template <bool kCheckPrecedes, class R, class ToOracle>
void ExpectOracleFolds(std::uint64_t seed, R (*random)(std::mt19937_64&),
                       ToOracle to_oracle) {
  std::mt19937_64 rng(seed);
  int behind = 0;
  for (int i = 0; i < 1000; ++i) {
    const R a = random(rng);
    const R b = random(rng);
    R merged = a;
    merged.MergeFrom(b);
    auto expected = to_oracle(a);
    oracle::MergeFrom(expected, to_oracle(b));
    ASSERT_EQ(WordsOf(to_oracle(merged)), WordsOf(expected)) << "pair " << i;

    R earlier = a;
    if constexpr (kCheckPrecedes) {
      if (i % 3 == 0) {
        Words<R> words = WordsOf(a);
        const std::size_t k = rng() % words.size();
        words[k] = WordsOf(merged)[k] + 1;
        earlier = FromWords<R>(words);
      }
      const bool precedes =
          oracle::Precedes(to_oracle(earlier), to_oracle(merged));
      ASSERT_EQ(Precedes(earlier, merged), precedes) << "pair " << i;
      if (!precedes) {
        ++behind;
        continue;
      }
    }
    ASSERT_EQ(WordsOf(to_oracle(merged.Since(earlier))),
              WordsOf(oracle::Since(to_oracle(merged), to_oracle(earlier))))
        << "pair " << i;
  }
  if constexpr (kCheckPrecedes) {
    EXPECT_GT(behind, 250);
  }
}

const auto kSame = [](const auto& record) { return record; };

TEST(CounterOracleTest, MetricsFoldLikeTheHandWrittenOnes) {
  ExpectOracleFolds<true>(11, RandomCounts<Metrics>, oracle::CountersOf);
}

TEST(CounterOracleTest, DeliveryStatsFoldLikeTheHandWrittenOnes) {
  ExpectOracleFolds<true>(12, RandomCounts<DeliveryStats>, kSame);
}

TEST(CounterOracleTest, QueryLatencyStatsFoldLikeTheHandWrittenOnes) {
  ExpectOracleFolds<true>(13, RandomCounts<QueryLatencyStats>, kSame);
}

TEST(CounterOracleTest, PhaseBreakdownFoldsLikeTheHandWrittenOnes) {
  ExpectOracleFolds<false>(14, RandomBreakdown, kSame);
}

}  // namespace
}  // namespace p3q
