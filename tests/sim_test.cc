// Unit tests for sim/: metrics accounting, network liveness, cycle engine.
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sim/engine.h"
#include "sim/metrics.h"
#include "sim/network.h"

namespace p3q {
namespace {

TEST(MetricsTest, RecordsPerType) {
  Metrics m;
  m.Record(MessageType::kPartialResult, 100);
  m.Record(MessageType::kPartialResult, 50);
  m.Record(MessageType::kEagerQueryForward, 8);
  EXPECT_EQ(m.Of(MessageType::kPartialResult).messages, 2u);
  EXPECT_EQ(m.Of(MessageType::kPartialResult).bytes, 150u);
  EXPECT_EQ(m.TotalBytes(), 158u);
  EXPECT_EQ(m.TotalMessages(), 3u);
}

TEST(MetricsTest, SinceComputesDelta) {
  Metrics m;
  m.Record(MessageType::kRandomViewGossip, 10);
  const Metrics snapshot = m.Snapshot();
  m.Record(MessageType::kRandomViewGossip, 25);
  const Metrics delta = m.Since(snapshot);
  EXPECT_EQ(delta.Of(MessageType::kRandomViewGossip).messages, 1u);
  EXPECT_EQ(delta.Of(MessageType::kRandomViewGossip).bytes, 25u);
}

TEST(MetricsTest, ResetZeroes) {
  Metrics m;
  m.Record(MessageType::kLazyFullProfile, 999);
  m.Reset();
  EXPECT_EQ(m.TotalBytes(), 0u);
  EXPECT_EQ(m.TotalMessages(), 0u);
}

TEST(MetricsTest, AllTypesHaveDistinctNames) {
  // Every real enum value must map to its own non-empty name; a MessageType
  // added without one would fall through to "unknown" (or shadow another
  // type's name) and silently corrupt report columns.
  std::vector<std::string> names;
  for (int i = 0; i < static_cast<int>(MessageType::kCount); ++i) {
    const char* name = MessageTypeName(static_cast<MessageType>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "");
    EXPECT_STRNE(name, "unknown");
    for (const std::string& seen : names) {
      EXPECT_NE(seen, name) << "duplicate MessageType name";
    }
    names.push_back(name);
  }
}

TEST(MetricsTest, MisorderedSinceClampsInsteadOfWrapping) {
  // Regression: subtracting a LATER snapshot from an earlier one used to
  // wrap the unsigned counters to ~2^64. MonotoneDelta asserts the ordering
  // in debug builds and clamps to zero in release builds.
  Metrics m;
  m.Record(MessageType::kRandomViewGossip, 10);
  const Metrics earlier = m.Snapshot();
  m.Record(MessageType::kRandomViewGossip, 25);
#ifdef NDEBUG
  const Metrics misordered = earlier.Since(m);
  EXPECT_EQ(misordered.Of(MessageType::kRandomViewGossip).messages, 0u);
  EXPECT_EQ(misordered.Of(MessageType::kRandomViewGossip).bytes, 0u);

  DeliveryStats delivery_now;
  delivery_now.enqueued = 5;
  DeliveryStats delivery_later = delivery_now;
  delivery_later.enqueued = 9;
  EXPECT_EQ(delivery_now.Since(delivery_later).enqueued, 0u);

  QueryLatencyStats query_now;
  query_now.issued = 3;
  QueryLatencyStats query_later = query_now;
  query_later.issued = 7;
  EXPECT_EQ(query_now.Since(query_later).issued, 0u);
#else
  EXPECT_DEATH(earlier.Since(m), "monotone counter delta");
#endif
}

TEST(NetworkTest, LivenessBookkeeping) {
  Network net(5);
  EXPECT_EQ(net.NumOnline(), 5u);
  EXPECT_TRUE(net.IsOnline(3));
  net.SetOnline(3, false);
  EXPECT_FALSE(net.IsOnline(3));
  EXPECT_EQ(net.NumOnline(), 4u);
  net.SetOnline(3, false);  // idempotent
  EXPECT_EQ(net.NumOnline(), 4u);
  net.SetOnline(3, true);
  EXPECT_EQ(net.NumOnline(), 5u);
}

TEST(NetworkTest, FailRandomFractionTakesExactShare) {
  Network net(100);
  Rng rng(3);
  const std::vector<UserId> left = net.FailRandomFraction(0.3, &rng);
  EXPECT_EQ(left.size(), 30u);
  EXPECT_EQ(net.NumOnline(), 70u);
  for (UserId u : left) EXPECT_FALSE(net.IsOnline(u));
}

TEST(NetworkTest, FailRandomFractionOnlyHitsOnline) {
  Network net(10);
  Rng rng(5);
  net.FailRandomFraction(0.5, &rng);       // 5 leave
  net.FailRandomFraction(1.0, &rng);       // the remaining 5 leave
  EXPECT_EQ(net.NumOnline(), 0u);
}

// A plan/commit protocol recording both phases. Plan writes only the
// node's private slot and sends one message (the engine contract); the
// in-order drain appends each commit to the shared log. When given, `online`
// marks the nodes that take part in a cycle.
class CountingProtocol : public CycleProtocol {
 public:
  explicit CountingProtocol(std::size_t num_nodes,
                            const std::vector<char>* online = nullptr)
      : planned_(num_nodes), online_(online) {}

  bool ActiveInCycle(UserId node) const override {
    return online_ == nullptr || (*online_)[node] != 0;
  }

  void PlanCycle(UserId node, const PlanContext& ctx) override {
    planned_[node].emplace_back(node, ctx.cycle);
    ctx.Send(std::make_unique<DeliveryMessage>());
  }
  void CommitMessage(UserId sender, DeliveryMessage& /*message*/,
                     const CommitContext& ctx) override {
    commits.emplace_back(sender, ctx.cycle);
  }

  /// All plan calls, flattened in node order.
  std::vector<std::pair<UserId, std::uint64_t>> Planned() const {
    std::vector<std::pair<UserId, std::uint64_t>> out;
    for (const auto& slot : planned_) {
      out.insert(out.end(), slot.begin(), slot.end());
    }
    return out;
  }

  std::vector<std::pair<UserId, std::uint64_t>> commits;

 private:
  std::vector<std::vector<std::pair<UserId, std::uint64_t>>> planned_;
  const std::vector<char>* online_;
};

TEST(EngineTest, RunsEveryNodeEveryCycle) {
  CountingProtocol protocol(4);
  Engine engine(4, 7, &protocol);
  engine.RunCycles(3);
  EXPECT_EQ(protocol.Planned().size(), 12u);
  EXPECT_EQ(protocol.commits.size(), 12u);
  EXPECT_EQ(engine.CurrentCycle(), 3u);
  // Each cycle covers all nodes exactly once, in both phases.
  for (std::uint64_t c = 0; c < 3; ++c) {
    std::set<UserId> seen;
    for (const auto& [node, cycle] : protocol.Planned()) {
      if (cycle == c) seen.insert(node);
    }
    EXPECT_EQ(seen.size(), 4u);
  }
}

TEST(EngineTest, CommitsInAscendingNodeOrder) {
  // The ZeroLatency drain commits each cycle's messages by ascending sender.
  CountingProtocol protocol(6);
  Engine engine(6, 11, &protocol);
  engine.RunCycles(2);
  ASSERT_EQ(protocol.commits.size(), 12u);
  for (std::size_t i = 0; i < protocol.commits.size(); ++i) {
    EXPECT_EQ(protocol.commits[i].first, static_cast<UserId>(i % 6));
    EXPECT_EQ(protocol.commits[i].second, i / 6);
  }
}

TEST(EngineTest, LivenessFilterSkipsNodes) {
  const std::vector<char> online = {1, 1, 0, 1};
  CountingProtocol protocol(4, &online);
  Engine engine(4, 17, &protocol);
  engine.RunCycles(2);
  for (const auto& [node, cycle] : protocol.Planned()) EXPECT_NE(node, 2u);
  for (const auto& [node, cycle] : protocol.commits) EXPECT_NE(node, 2u);
  EXPECT_EQ(protocol.Planned().size(), 6u);
  EXPECT_EQ(protocol.commits.size(), 6u);
}

TEST(EngineTest, DeterministicForSameSeed) {
  CountingProtocol p1(10), p2(10);
  Engine e1(10, 99, &p1), e2(10, 99, &p2);
  e1.RunCycles(5);
  e2.RunCycles(5);
  EXPECT_EQ(p1.Planned(), p2.Planned());
  EXPECT_EQ(p1.commits, p2.commits);
}

// A counting protocol whose commit of node 0's message flips a victim
// offline, through the same flags its ActiveInCycle reads.
class MidCycleKiller : public CountingProtocol {
 public:
  MidCycleKiller(std::vector<char>* online, UserId victim)
      : CountingProtocol(online->size(), online),
        flags_(online),
        victim_(victim) {}
  void CommitMessage(UserId sender, DeliveryMessage& message,
                     const CommitContext& ctx) override {
    CountingProtocol::CommitMessage(sender, message, ctx);
    if (sender == 0) (*flags_)[victim_] = 0;
  }

 private:
  std::vector<char>* flags_;
  UserId victim_;
};

// Only the plan phase asks ActiveInCycle: a node going offline through a
// commit keeps the cycle it planned in, and only disappears from the next
// one.
TEST(EngineTest, GoingOfflineInACommitTakesEffectNextCycle) {
  std::vector<char> online(4, 1);
  MidCycleKiller protocol(&online, /*victim=*/2);
  Engine engine(4, 23, &protocol);

  engine.RunCycles(1);
  // The victim failed during sender 0's commit (0 < victim 2), yet its own
  // cycle-0 message still committed in cycle 0.
  std::set<UserId> cycle0;
  for (const auto& [node, cycle] : protocol.commits) cycle0.insert(node);
  EXPECT_TRUE(cycle0.count(2)) << "a mid-cycle failure dropped the victim's "
                                  "message of the same cycle";

  engine.RunCycles(1);
  for (const auto& [node, cycle] : protocol.Planned()) {
    if (cycle == 1) {
      EXPECT_NE(node, 2u) << "next cycle must skip the victim";
    }
  }
}

}  // namespace
}  // namespace p3q
