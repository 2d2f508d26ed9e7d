// Checkpoint/resume: codec round-trips, whole-system save/load identity,
// the differential replay matrix (straight-through vs checkpoint-at-K +
// resume must produce byte-identical reports for every K, thread count and
// latency model), corrupt-input robustness (including seeded mutations of
// a real snapshot), the writer's bytes for one snapshot of every record
// kind, and the checked-in golden v2 snapshot that pins what the reader
// accepts.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/eager_protocol.h"
#include "core/lazy_protocol.h"
#include "core/p3q_system.h"
#include "core/query.h"
#include "dataset/update_batch.h"
#include "obs/trace.h"
#include "scenario/registry.h"
#include "scenario/report.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "serving/lifecycle.h"
#include "sim/checkpoint.h"
#include "sim/delivery.h"
#include "sim/engine.h"
#include "test_util.h"

namespace p3q {
namespace {

/// A scratch path private to this process: ctest runs every test case in its
/// own process, possibly in parallel, so fixed names would collide.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "p3q_checkpoint_" + std::to_string(getpid()) +
         "_" + name;
}

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// The runner's phase scaling, replicated so tests can pick K values that
/// hit exact phase boundaries and the last cycle.
std::uint64_t ScaledPhaseCycles(const ScenarioPhase& phase, double scale) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::llround(static_cast<double>(phase.cycles) * scale)));
}

std::uint64_t TotalScaledCycles(const Scenario& scenario, double scale) {
  std::uint64_t total = 0;
  for (const ScenarioPhase& phase : scenario.phases) {
    total += ScaledPhaseCycles(phase, scale);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Codec round-trips.
// ---------------------------------------------------------------------------

TEST(CheckpointCodecTest, PrimitivesRoundTrip) {
  CheckpointWriter w;
  w.U8(0xab);
  w.U32(0xdeadbeefu);
  w.U64(0x0123456789abcdefull);
  w.I64(-42);
  w.F64(-0.125);
  w.Str("hello\0world");  // embedded NUL truncated by the literal; fine
  w.Str("");
  w.Sentinel();

  CheckpointReader r(w.buffer().data(), w.buffer().size());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_EQ(r.F64(), -0.125);
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), "");
  r.Sentinel("primitives");
  r.ExpectEnd();
}

TEST(CheckpointCodecTest, ReaderIsBoundsChecked) {
  CheckpointWriter w;
  w.U32(7);
  CheckpointReader r(w.buffer().data(), w.buffer().size());
  EXPECT_THROW(r.U64(), CheckpointError);

  // A corrupted count can never trigger a huge allocation: 4 bytes of
  // payload cannot hold 2^60 eight-byte elements.
  CheckpointWriter c;
  c.U64(1ull << 60);
  c.U32(0);
  CheckpointReader rc(c.buffer().data(), c.buffer().size());
  EXPECT_THROW(rc.Count(8), CheckpointError);
}

TEST(CheckpointCodecTest, RngStateRoundTrip) {
  Rng a(12345);
  for (int i = 0; i < 17; ++i) a.NextUint64(1000);
  CheckpointWriter w;
  Transfer(w, a);
  Rng b(999);  // different seed; state restore must overwrite it fully
  CheckpointReader r(w.buffer().data(), w.buffer().size());
  Transfer(r, b);
  r.ExpectEnd();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.NextUint64(1u << 30), b.NextUint64(1u << 30)) << i;
  }
}

TEST(CheckpointCodecTest, StatsRoundTripBytes) {
  Metrics m;
  m.Record(MessageType::kLazyDigestProposal, 321);
  m.Record(MessageType::kPartialResult, 77);
  CheckpointWriter w;
  Transfer(w, m);
  CheckpointReader r(w.buffer().data(), w.buffer().size());
  Metrics back;
  Transfer(r, back);
  r.ExpectEnd();
  CheckpointWriter w2;
  Transfer(w2, back);
  EXPECT_EQ(w.buffer(), w2.buffer());

  DeliveryStats d;
  d.enqueued = 10;
  d.delivered = 8;
  d.dropped = 1;
  d.RecordDelivery(3);
  CheckpointWriter dw;
  Transfer(dw, d);
  CheckpointReader dr(dw.buffer().data(), dw.buffer().size());
  DeliveryStats dback;
  Transfer(dr, dback);
  dr.ExpectEnd();
  CheckpointWriter dw2;
  Transfer(dw2, dback);
  EXPECT_EQ(dw.buffer(), dw2.buffer());
}

TEST(CheckpointCodecTest, ProfilePoolSharesSnapshots) {
  const ProfilePtr p1 = test::MakeDisjointSnapshot(1, 4, /*version=*/2);
  const ProfilePtr p2 = test::MakeDisjointSnapshot(2, 3, /*version=*/0);
  ProfilePool pool;
  const std::uint32_t id1 = pool.Intern(p1);
  const std::uint32_t id2 = pool.Intern(p2);
  EXPECT_EQ(pool.Intern(p1), id1);  // same pointer, same pool entry
  EXPECT_EQ(pool.Intern(nullptr), kNullProfileRef);
  EXPECT_EQ(pool.size(), 2u);

  CheckpointWriter w;
  pool.Serialize(&w);
  CheckpointReader r(w.buffer().data(), w.buffer().size());
  const ProfileTable table =
      ProfileTable::Deserialize(&r, p1->DigestBytes() * 8);
  r.ExpectEnd();
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Get(id1)->owner(), p1->owner());
  EXPECT_EQ(table.Get(id1)->version(), p1->version());
  EXPECT_TRUE(std::ranges::equal(table.Get(id1)->actions(), p1->actions()));
  EXPECT_EQ(table.Get(id2)->owner(), p2->owner());
  EXPECT_EQ(table.Get(kNullProfileRef), nullptr);
  EXPECT_THROW(table.Get(2), CheckpointError);
}

// ---------------------------------------------------------------------------
// Whole-system save/load identity: loading a snapshot into a fresh system
// and saving again must reproduce the payload byte for byte — the strongest
// possible statement that nothing was dropped or reordered.
// ---------------------------------------------------------------------------

TEST(CheckpointSystemTest, SaveLoadSaveIsByteIdentical) {
  test::TestSystem env({.users = 80, .seed_ideal = false});
  env.system->SetLatency(LatencySpec{LatencyKind::kFixed, /*fixed=*/2});
  env.system->RunLazyCycles(6);
  const std::uint64_t qid = env.system->IssueQuery(env.QueryOf(3));
  env.system->RunEagerCycles(2);  // leave the query (and messages) in flight
  (void)qid;

  CheckpointWriter first;
  env.system->SaveCheckpoint(&first);

  test::TestSystem fresh({.users = 80, .seed_ideal = false});
  fresh.system->SetLatency(LatencySpec{LatencyKind::kFixed, /*fixed=*/2});
  CheckpointReader in(first.buffer().data(), first.buffer().size());
  fresh.system->LoadCheckpoint(&in);
  in.ExpectEnd();

  CheckpointWriter second;
  fresh.system->SaveCheckpoint(&second);
  EXPECT_EQ(first.buffer(), second.buffer());

  // And the two systems evolve identically from here.
  env.system->RunEagerCycles(4);
  fresh.system->RunEagerCycles(4);
  env.system->RunLazyCycles(3);
  fresh.system->RunLazyCycles(3);
  CheckpointWriter a, b;
  env.system->SaveCheckpoint(&a);
  fresh.system->SaveCheckpoint(&b);
  EXPECT_EQ(a.buffer(), b.buffer());
}

TEST(CheckpointSystemTest, BrokenPersonalNetworkIsRejected) {
  // A well-formed encoding of an unsound state: user 0's network lists one
  // neighbour twice.
  test::TestSystem env({.users = 40});
  PersonalNetwork& network = env.system->node(0).network();
  std::vector<NetworkEntry> entries(network.entries().begin(),
                                    network.entries().end());
  std::vector<ProfilePtr> replicas;
  for (const NetworkEntry& e : entries) {
    replicas.push_back(network.StoredProfileOf(e));
  }
  ASSERT_FALSE(entries.empty());
  entries.push_back(entries.front());
  replicas.push_back(replicas.front());
  network.RestoreEntries(entries, std::move(replicas));
  CheckpointWriter out;
  env.system->SaveCheckpoint(&out);

  test::TestSystem fresh({.users = 40});
  CheckpointReader in(out.buffer().data(), out.buffer().size());
  try {
    fresh.system->LoadCheckpoint(&in);
    FAIL() << "a network with a duplicated neighbour was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("personal network of user 0"),
              std::string::npos)
        << e.what();
  }
}

/// Saves `env`'s system, loads it into a fresh 40-user system, and expects a
/// CheckpointError whose message contains `expected`.
void ExpectLoadRejected(test::TestSystem& env, const std::string& expected) {
  CheckpointWriter out;
  env.system->SaveCheckpoint(&out);
  test::TestSystem fresh({.users = 40});
  CheckpointReader in(out.buffer().data(), out.buffer().size());
  try {
    fresh.system->LoadCheckpoint(&in);
    FAIL() << "accepted a checkpoint that should fail with: " << expected;
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointSystemTest, RandomViewDigestOfUnknownUserIsRejected) {
  // User 40 does not exist in a 40-user system; its digest is otherwise
  // well formed (the snapshot is its own).
  test::TestSystem env({.users = 40});
  env.system->node(0).random_view().Init({test::MakeDisjointDigest(40)});
  ExpectLoadRejected(env, "digest user 40 out of range");
}

TEST(CheckpointSystemTest, DigestCarryingAnotherUsersProfileIsRejected) {
  test::TestSystem env({.users = 40});
  env.system->node(0).random_view().Init(
      {DigestInfo{5, test::MakeDisjointSnapshot(6, 4)}});
  ExpectLoadRejected(env, "digest of user 5 carries a profile of user 6");
}

TEST(CheckpointSystemTest, EmptyEagerTaskIsRejected) {
  // The protocol erases a task whose list empties, so a restored empty one
  // is corrupt (and would divide by zero in the budgeted eager plan).
  test::TestSystem env({.users = 40});
  EagerTask task;
  task.query_id = 7;
  task.querier = 0;
  task.tags = {1};
  env.system->node(3).tasks().emplace(task.query_id, task);
  ExpectLoadRejected(env, "user 3 holds an empty task for query 7");
}

TEST(CheckpointSystemTest, ActiveTaskCountOtherThanTheHoldersIsRejected) {
  // The eager section counts, per query, the nodes holding its task, and
  // Forget trusts that count. A query whose restored nodes disagree with
  // it is refused: a holder missing, one too many, or a task of a query
  // the section does not hold.
  {
    test::TestSystem env({.users = 40});
    const std::uint64_t qid = env.system->IssueQuery(env.QueryOf(0));
    ASSERT_FALSE(env.system->QueryComplete(qid));
    env.system->node(0).tasks().erase(qid);
    ExpectLoadRejected(env, "eager query " + std::to_string(qid) +
                                " counts 1 active tasks but 0 nodes hold "
                                "its task");
  }
  {
    test::TestSystem env({.users = 40});
    const std::uint64_t qid = env.system->IssueQuery(env.QueryOf(0));
    ASSERT_FALSE(env.system->QueryComplete(qid));
    env.system->node(5).tasks().emplace(qid,
                                        env.system->node(0).tasks().at(qid));
    ExpectLoadRejected(env, "eager query " + std::to_string(qid) +
                                " counts 1 active tasks but 2 nodes hold "
                                "its task");
  }
  {
    test::TestSystem env({.users = 40});
    const std::uint64_t qid = env.system->IssueQuery(env.QueryOf(0));
    ASSERT_FALSE(env.system->QueryComplete(qid));
    EagerTask orphan = env.system->node(0).tasks().at(qid);
    orphan.query_id = qid + 100;
    env.system->node(5).tasks().emplace(orphan.query_id, orphan);
    ExpectLoadRejected(env, "eager query " + std::to_string(qid + 100) +
                                " is not in the checkpoint but 1 nodes "
                                "hold its task");
  }
}

TEST(CheckpointSystemTest, RestoreSharesTheFreshStoresUnchangedSnapshots) {
  // A checkpoint restores into a freshly built system, whose only live
  // snapshots are its store's version-0 ones. Every version-0 snapshot in
  // the checkpoint must share the fresh store's object and count as a hit;
  // the updated users' new snapshots must be rebuilt and count as misses.
  constexpr UserId kUsers = 40;
  test::TestSystem env({.users = kUsers});
  env.system->RunLazyCycles(2);
  UpdateBatch batch;
  std::vector<std::weak_ptr<const Profile>> replaced;
  for (UserId u = 0; u < kUsers; u += 3) {
    batch.updates.push_back(
        ProfileUpdate{u, {MakeAction(1'000'000 + u, 1), MakeAction(7, 2)}});
    replaced.push_back(env.system->profile_store().Get(u));
  }
  env.system->ApplyUpdateBatch(batch);
  // Replicas and random views may still hold an updated user's version 0,
  // which the checkpoint then carries too.
  const std::size_t held_originals = static_cast<std::size_t>(
      std::count_if(replaced.begin(), replaced.end(),
                    [](const auto& weak) { return !weak.expired(); }));
  CheckpointWriter out;
  env.system->SaveCheckpoint(&out);

  test::TestSystem fresh({.users = kUsers});
  const ProfileStore& store = fresh.system->profile_store();
  std::vector<const Profile*> originals;
  for (UserId u = 0; u < kUsers; ++u) originals.push_back(store.Get(u).get());
  const ProfileStoreMemoryStats before = store.MemoryStats();
  CheckpointReader in(out.buffer().data(), out.buffer().size());
  fresh.system->LoadCheckpoint(&in);
  in.ExpectEnd();

  const ProfileStoreMemoryStats after = store.MemoryStats();
  for (UserId u = 0; u < kUsers; ++u) {
    const Profile& restored = *store.Get(u);
    if (u % 3 == 0) {
      EXPECT_NE(&restored, originals[u]) << "user " << u;
      EXPECT_EQ(restored.version(), 1u) << "user " << u;
      EXPECT_TRUE(std::ranges::equal(
          restored.actions(), env.system->profile_store().Get(u)->actions()))
          << "user " << u;
    } else {
      EXPECT_EQ(&restored, originals[u]) << "user " << u;
    }
    EXPECT_EQ(fresh.system->node(u).profile().get(), &restored);
  }
  EXPECT_EQ(after.pool_misses - before.pool_misses, batch.updates.size());
  EXPECT_EQ(after.pool_hits - before.pool_hits,
            kUsers - batch.updates.size() + held_originals);
}

TEST(CheckpointSystemTest, ProbedUserPastThePopulationIsRejected) {
  // User 40 does not exist in a 40-user system. The probe memo marks its
  // empty slots with kInvalidUser, so an unchecked id could corrupt it.
  test::TestSystem env({.users = 40});
  env.system->node(2).probed_versions().Set(40, 3);
  ExpectLoadRejected(env, "probed user 40 out of range");
}

TEST(CheckpointSystemTest, ProbedUsersOutOfOrderAreRejected) {
  // SaveCheckpoint writes each memo sorted, every user once. A repeated or
  // descending user would let a later entry replace an earlier one on
  // restore, so the restored memo would differ from what the file lists.
  test::TestSystem env({.users = 40});
  ProbeMemo& memo = env.system->node(2).probed_versions();
  memo.Clear();
  memo.Set(11, 0x5eed0b0bu);
  memo.Set(13, 0x5eed0d0du);
  CheckpointWriter out;
  env.system->SaveCheckpoint(&out);
  const std::vector<std::uint8_t>& pristine = out.buffer();
  // The memo section: u64 count 2, then (u32 user, u32 version) pairs.
  const std::vector<std::uint32_t> section = {2, 0, 11, 0x5eed0b0bu,
                                              13, 0x5eed0d0du};
  std::vector<std::size_t> found;
  for (std::size_t p = 0; p + 4 * section.size() <= pristine.size(); ++p) {
    bool match = true;
    for (std::size_t w = 0; w < section.size() && match; ++w) {
      std::uint32_t word = 0;
      std::memcpy(&word, pristine.data() + p + 4 * w, 4);
      match = word == section[w];
    }
    if (match) found.push_back(p);
  }
  ASSERT_EQ(found.size(), 1u) << "probe memo section not located";

  const auto expect_rejected = [&](UserId first, UserId second) {
    std::vector<std::uint8_t> bytes = pristine;
    std::memcpy(bytes.data() + found[0] + 8, &first, 4);
    std::memcpy(bytes.data() + found[0] + 16, &second, 4);
    test::TestSystem fresh({.users = 40});
    CheckpointReader in(bytes.data(), bytes.size());
    try {
      fresh.system->LoadCheckpoint(&in);
      ADD_FAILURE() << "accepted probed users " << first << ", " << second;
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("probed users out of order"),
                std::string::npos)
          << e.what();
    }
  };
  expect_rejected(13, 11);  // descending
  expect_rejected(11, 11);  // repeated

  // The untouched bytes still load, and the memo comes back as listed.
  test::TestSystem fresh({.users = 40});
  CheckpointReader in(pristine.data(), pristine.size());
  fresh.system->LoadCheckpoint(&in);
  EXPECT_EQ(fresh.system->node(2).probed_versions().Sorted(), memo.Sorted());
}

TEST(CheckpointSystemTest, ProbeVersionsPastAByteRoundTrip) {
  // Versions of 255 and above live in the memo's side map; a checkpoint
  // writes and restores them exactly, and the restored memo answers alike.
  test::TestSystem env({.users = 40, .seed_ideal = false});
  env.system->RunLazyCycles(3);
  ProbeMemo& memo = env.system->node(3).probed_versions();
  const std::vector<std::uint32_t> versions = {254, 255, 256, 70000,
                                               0xffffffffu};
  for (std::size_t i = 0; i < versions.size(); ++i) {
    memo.Set(static_cast<UserId>(20 + i), versions[i]);
  }
  CheckpointWriter first;
  env.system->SaveCheckpoint(&first);

  test::TestSystem fresh({.users = 40, .seed_ideal = false});
  CheckpointReader in(first.buffer().data(), first.buffer().size());
  fresh.system->LoadCheckpoint(&in);
  in.ExpectEnd();
  ProbeMemo& restored = fresh.system->node(3).probed_versions();
  EXPECT_EQ(restored.Sorted(), memo.Sorted());
  EXPECT_EQ(restored.MemoryBytes(), memo.MemoryBytes());
  CheckpointWriter second;
  fresh.system->SaveCheckpoint(&second);
  EXPECT_EQ(first.buffer(), second.buffer());

  for (std::size_t i = 0; i < versions.size(); ++i) {
    const UserId user = static_cast<UserId>(20 + i);
    for (const std::uint32_t offer : {versions[i] - 1, versions[i],
                                      versions[i] + 1}) {
      EXPECT_EQ(restored.ShouldProbe(user, offer), memo.ShouldProbe(user, offer))
          << "user " << user << " offered " << offer;
    }
  }
  EXPECT_EQ(restored.Sorted(), memo.Sorted());
}

TEST(CheckpointSystemTest, ReachedUserPastThePopulationIsRejected) {
  // An eager-state section whose one query lists user 40 as reached, in a
  // 40-user system: Forget would later index the node array with it.
  test::TestSystem env({.users = 40});
  CheckpointWriter out;
  out.U64(1);  // queries
  const ActiveQuery query(/*id=*/1, env.QueryOf(0), /*k=*/10,
                          /*expected=*/20);
  query.SaveState(&out);
  out.U64(2);  // reached users
  out.U32(0);
  out.U32(40);
  out.I64(0);  // active tasks
  out.U8(0);   // finalized
  out.U64(0);  // timeout re-issues
  out.U64(0);  // stale messages dropped
  out.U64(0);  // late results of forgotten queries
  out.U64(2);  // next query id
  out.U64(1);  // next task epoch
  out.Sentinel();
  CheckpointReader in(out.buffer().data(), out.buffer().size());
  in.SetPopulation(40);
  try {
    env.system->eager().LoadState(&in);
    FAIL() << "a reached user past the population was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("reached user 40 out of range"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckpointSystemTest, FinalizedByteThatDisagreesWithItsQueryIsRejected) {
  // An eager-state section of one query, open or finalized, whose
  // finalized byte is written as `flag`: the byte repeats the query's own
  // flag, so a byte that disagrees with it is refused.
  const auto load = [](bool finalized, bool flag) {
    test::TestSystem env({.users = 40});
    CheckpointWriter out;
    out.U64(1);  // queries
    ActiveQuery query(/*id=*/1, env.QueryOf(0), /*k=*/10, /*expected=*/20);
    if (finalized) query.EndOfCycle(/*complete=*/true);
    query.SaveState(&out);
    out.U64(1);  // reached users
    out.U32(0);
    out.I64(0);  // active tasks
    out.U8(flag ? 1 : 0);
    out.U64(0);  // timeout re-issues
    out.U64(0);  // stale messages dropped
    out.U64(0);  // late results of forgotten queries
    out.U64(2);  // next query id
    out.U64(1);  // next task epoch
    out.Sentinel();
    CheckpointReader in(out.buffer().data(), out.buffer().size());
    in.SetPopulation(40);
    env.system->eager().LoadState(&in);
    EXPECT_EQ(env.system->query(1).finalized(), finalized);
  };
  for (const bool finalized : {false, true}) {
    SCOPED_TRACE(finalized ? "finalized query" : "open query");
    EXPECT_NO_THROW(load(finalized, finalized));
    try {
      load(finalized, !finalized);
      FAIL() << "a finalized byte that disagrees with the query was accepted";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "eager query 1's finalized byte disagrees"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CheckpointSystemTest, ReadUserIdRejectsIdsPastThePopulation) {
  CheckpointWriter out;
  out.U32(39);
  out.U32(40);
  out.U32(kInvalidUser);
  CheckpointReader in(out.buffer().data(), out.buffer().size());
  in.SetPopulation(40);
  EXPECT_EQ(in.User("sender"), 39u);
  EXPECT_THROW(in.User("sender"), CheckpointError);
  EXPECT_THROW(in.User("sender"), CheckpointError);
}

TEST(CheckpointSystemTest, QueryUsersPastThePopulationAreRejected) {
  // An active query's querier and used-profile owners index the user
  // arrays like every other id a checkpoint holds.
  test::TestSystem env({.users = 40});
  QuerySpec spec = env.QueryOf(0);
  spec.querier = 40;
  CheckpointWriter out;
  ActiveQuery(/*id=*/1, spec, /*k=*/10, /*expected=*/20).SaveState(&out);
  CheckpointReader in(out.buffer().data(), out.buffer().size());
  in.SetPopulation(40);
  ActiveQuery loaded(/*id=*/0, QuerySpec{}, /*k=*/1, /*expected=*/0);
  try {
    loaded.LoadState(&in);
    FAIL() << "a querier past the population was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("querier 40 out of range"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckpointSystemTest, TrackerQuerierPastThePopulationIsRejected) {
  // A serving-tracker section whose one open query names a live query but
  // a querier far past the population of 40.
  test::TestSystem env({.users = 40});
  const std::uint64_t qid = env.system->IssueQuery(env.QueryOf(0));
  CheckpointWriter out;
  out.U64(5);      // slo cycles
  out.F64(0.9);    // recall target
  out.U64(1);      // open queries
  out.U64(qid);    // query id
  out.U64(0);      // issue cycle
  out.U32(0x0ffffff0u);  // querier
  out.U8(0);       // first result recorded
  out.U64(0);      // reference items
  out.Sentinel();
  CheckpointReader in(out.buffer().data(), out.buffer().size());
  in.SetPopulation(40);
  ServingTracker tracker(/*slo_cycles=*/0, /*recall_target=*/0.0);
  try {
    tracker.LoadState(&in, *env.system);
    FAIL() << "a tracked querier past the population was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("querier 268435440 out of range"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckpointSystemTest, ExchangeScoreWiderThan32BitsIsRejected) {
  // A personal network keeps 32-bit scores, and the commit of an offer
  // with a wider one would throw outside the loader.
  ProfileExchangePlan plan;
  plan.a = 0;
  plan.b = 1;
  const DigestInfo digest = test::MakeDisjointDigest(2);
  plan.offers_to_b.push_back(ProfileExchangeOffer{1ull << 32, digest, 0});
  CheckpointWriter body = CheckpointWriter::Measuring();
  TransferExchangePlan(body, std::as_const(plan));
  CheckpointWriter out;
  out.WritePool(body.TakePool());
  TransferExchangePlan(out, std::as_const(plan));
  CheckpointReader in(out.buffer().data(), out.buffer().size());
  in.SetProfiles(
      ProfileTable::Deserialize(&in, digest.snapshot->DigestBytes() * 8));
  in.SetPopulation(40);
  ProfileExchangePlan loaded;
  try {
    TransferExchangePlan(in, loaded);
    FAIL() << "a score wider than 32 bits was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("score 4294967296 does not fit"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckpointSystemTest, EngineQueueCountOtherThanOneIsRejected) {
  class IdleProtocol : public CycleProtocol {
   public:
    void PlanCycle(UserId /*node*/, const PlanContext& /*ctx*/) override {}
  };
  IdleProtocol protocol;
  constexpr std::uint64_t kSeed = 11;
  Engine engine(/*num_nodes=*/4, kSeed, &protocol);
  for (const std::uint64_t count : {0u, 2u}) {
    CheckpointWriter out;
    out.U64(kSeed);  // seed echo
    out.U64(3);      // cycle
    out.U64(count);  // queue count
    CheckpointReader in(out.buffer().data(), out.buffer().size());
    try {
      engine.LoadState(&in);
      FAIL() << "an engine section with " << count << " queues was accepted";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(count) +
                                           " protocol queues"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Differential replay matrix.
// ---------------------------------------------------------------------------

struct RunConfig {
  std::string scenario;
  double cycle_scale = 0.2;
  int users = 120;
  std::optional<LatencySpec> latency = std::nullopt;
};

ScenarioRunnerOptions BaseOptions(const RunConfig& cfg) {
  ScenarioRunnerOptions options;
  options.users = cfg.users;
  options.seed = 7;
  options.cycle_scale = cfg.cycle_scale;
  options.latency = cfg.latency;
  return options;
}

/// JSON+CSV of a straight-through run (the differential reference).
struct Rendered {
  std::string json;
  std::string csv;
};

Rendered RenderReport(const ScenarioReport& report) {
  return Rendered{ScenarioReportToJson(report), ScenarioReportToCsv(report)};
}

Rendered StraightRun(const RunConfig& cfg) {
  const Scenario scenario = MakeScenario(cfg.scenario);
  return RenderReport(RunScenario(scenario, BaseOptions(cfg)));
}

/// Checkpoints at K, resumes with `resume_threads` workers, and expects the
/// stitched report to match the straight-through rendering byte for byte.
void ExpectResumeIdentical(const RunConfig& cfg, const Rendered& straight,
                           std::uint64_t k, int checkpoint_threads = 0,
                           int resume_threads = 0) {
  SCOPED_TRACE(cfg.scenario + " K=" + std::to_string(k) + " threads=" +
               std::to_string(checkpoint_threads) + "/" +
               std::to_string(resume_threads));
  const Scenario scenario = MakeScenario(cfg.scenario);
  const std::string path = TempPath("matrix_" + cfg.scenario + "_" +
                                    std::to_string(k) + ".ckpt");

  ScenarioRunnerOptions writer = BaseOptions(cfg);
  writer.threads = checkpoint_threads;
  writer.checkpoint_at = k;
  writer.checkpoint_path = path;
  const Rendered from_writer = RenderReport(RunScenario(scenario, writer));
  EXPECT_EQ(from_writer.json, straight.json)
      << "taking a checkpoint must not perturb the run";

  ScenarioRunnerOptions reader = BaseOptions(cfg);
  reader.threads = resume_threads;
  reader.resume_path = path;
  const Rendered resumed = RenderReport(RunScenario(scenario, reader));
  EXPECT_EQ(resumed.json, straight.json);
  EXPECT_EQ(resumed.csv, straight.csv);
  std::remove(path.c_str());
}

TEST(CheckpointResumeTest, DiurnalEveryInterestingK) {
  const RunConfig cfg{"diurnal"};
  const Scenario scenario = MakeScenario(cfg.scenario);
  const std::uint64_t total = TotalScaledCycles(scenario, cfg.cycle_scale);
  const std::uint64_t first_phase =
      ScaledPhaseCycles(scenario.phases[0], cfg.cycle_scale);
  const Rendered straight = StraightRun(cfg);
  // K = 0 (before anything), 1, a phase boundary, mid-phase, last cycle.
  for (const std::uint64_t k :
       {std::uint64_t{0}, std::uint64_t{1}, first_phase, first_phase + 1,
        total - 1}) {
    ExpectResumeIdentical(cfg, straight, k);
  }
}

TEST(CheckpointResumeTest, ThreadCountsNeverLeakIntoResume) {
  const RunConfig cfg{"diurnal"};
  const Rendered straight = StraightRun(cfg);
  // Snapshot under one thread count, resume under another — every pairing
  // must land on the same bytes.
  ExpectResumeIdentical(cfg, straight, 7, /*checkpoint_threads=*/2,
                        /*resume_threads=*/1);
  ExpectResumeIdentical(cfg, straight, 7, /*checkpoint_threads=*/1,
                        /*resume_threads=*/2);
  ExpectResumeIdentical(cfg, straight, 7, /*checkpoint_threads=*/8,
                        /*resume_threads=*/8);
}

TEST(CheckpointResumeTest, EveryLatencyModel) {
  const std::vector<LatencySpec> models = {
      LatencySpec{},  // zero
      LatencySpec{LatencyKind::kFixed, /*fixed=*/2},
      LatencySpec{LatencyKind::kUniform, /*fixed=*/0, /*lo=*/1, /*hi=*/3},
      LatencySpec{LatencyKind::kLossy, /*fixed=*/0, /*lo=*/0, /*hi=*/0,
                  /*loss=*/0.1, /*max_delay=*/4},
  };
  for (const LatencySpec& spec : models) {
    RunConfig cfg{"diurnal"};
    cfg.latency = spec;
    SCOPED_TRACE(spec.Name());
    const Rendered straight = StraightRun(cfg);
    ExpectResumeIdentical(cfg, straight, 7);
  }
}

TEST(CheckpointResumeTest, OpenLoopServingResumes) {
  RunConfig cfg{"open-loop-steady"};
  cfg.cycle_scale = 0.25;
  const Scenario scenario = MakeScenario(cfg.scenario);
  const std::uint64_t total = TotalScaledCycles(scenario, cfg.cycle_scale);
  ASSERT_GE(total, 4u);
  const Rendered straight = StraightRun(cfg);
  // Mid-run Ks land while open-loop queries are in flight, so the snapshot
  // carries live ActiveQuery/NRA/serving-tracker state.
  for (const std::uint64_t k : {std::uint64_t{1}, total / 2, total - 1}) {
    ExpectResumeIdentical(cfg, straight, k);
  }
}

// A checkpoint inside a phase with a stop target: the resumed run keeps
// checking the target and ends the phase on the same cycle.
TEST(CheckpointResumeTest, ConvergencePhaseResumes) {
  RunConfig cfg{"convergence"};
  cfg.cycle_scale = 1.0;
  cfg.users = 400;
  const Rendered straight = StraightRun(cfg);
  ExpectResumeIdentical(cfg, straight, 20);
}

// The storms fire at timeline cycles 30 and 39, so K = 35 restores
// snapshots the first storm already updated (version > 0), and the resumed
// run applies the second storm on top of them.
TEST(CheckpointResumeTest, UpdateStormResumes) {
  RunConfig cfg{"update-storm"};
  cfg.cycle_scale = 1.0;
  const Rendered straight = StraightRun(cfg);
  ExpectResumeIdentical(cfg, straight, 35);
}

TEST(CheckpointResumeTest, ResumedTraceIsByteSuffixOfStraightTrace) {
  const RunConfig cfg{"open-loop-steady"};
  const Scenario scenario = MakeScenario(cfg.scenario);
  const std::string path = TempPath("trace_suffix.ckpt");

  const auto traced_run = [&](ScenarioRunnerOptions options) {
    std::ostringstream out;
    JsonlTraceSink sink(&out);
    Tracer tracer(&sink);
    options.tracer = &tracer;
    RunScenario(scenario, options);
    tracer.Finish();
    return out.str();
  };

  const std::string straight = traced_run(BaseOptions(cfg));

  ScenarioRunnerOptions writer = BaseOptions(cfg);
  writer.checkpoint_at = 5;
  writer.checkpoint_path = path;
  traced_run(writer);  // the snapshot records the trace cursor

  ScenarioRunnerOptions reader = BaseOptions(cfg);
  reader.resume_path = path;
  const std::string resumed = traced_run(reader);

  ASSERT_FALSE(resumed.empty());
  ASSERT_LT(resumed.size(), straight.size());
  EXPECT_EQ(straight.substr(straight.size() - resumed.size()), resumed);
  std::remove(path.c_str());
}

// A chained run resumes from one checkpoint and writes the next one during
// the resumed run; resuming from that second file must still land on the
// straight run's bytes. The second checkpoint falls once inside the resumed
// phase and once in a later phase.
TEST(CheckpointResumeTest, ChainedResumeMatchesStraightRun) {
  for (const std::string name : {"diurnal", "open-loop-steady"}) {
    const RunConfig cfg{name};
    const Scenario scenario = MakeScenario(name);
    const std::uint64_t first_phase =
        ScaledPhaseCycles(scenario.phases[0], cfg.cycle_scale);
    ASSERT_GE(first_phase, 4u) << name;
    const Rendered straight = StraightRun(cfg);
    const std::string first = TempPath("chain_first_" + name + ".ckpt");
    const std::string second = TempPath("chain_second_" + name + ".ckpt");
    ScenarioRunnerOptions writer = BaseOptions(cfg);
    writer.checkpoint_at = 2;
    writer.checkpoint_path = first;
    RunScenario(scenario, writer);

    for (const std::uint64_t k : {std::uint64_t{3}, first_phase + 2}) {
      SCOPED_TRACE(name + " 2 -> " + std::to_string(k));
      ScenarioRunnerOptions relay = BaseOptions(cfg);
      relay.resume_path = first;
      relay.checkpoint_at = k;
      relay.checkpoint_path = second;
      EXPECT_EQ(RenderReport(RunScenario(scenario, relay)).json, straight.json);

      ScenarioRunnerOptions reader = BaseOptions(cfg);
      reader.resume_path = second;
      const Rendered resumed = RenderReport(RunScenario(scenario, reader));
      EXPECT_EQ(resumed.json, straight.json);
      EXPECT_EQ(resumed.csv, straight.csv);
      std::remove(second.c_str());
    }
    std::remove(first.c_str());
  }
}

// ---------------------------------------------------------------------------
// Resuming exactly on an event cycle must fire the event exactly once, and
// earlier events must never re-fire (regression: duty-cycle targets re-arm
// from the restored online set).
// ---------------------------------------------------------------------------

Scenario EventBoundaryScenario() {
  Scenario s;
  s.name = "event-boundary";
  s.description = "checkpoint/resume event-boundary regression timeline";
  ScenarioPhase phase;
  phase.name = "main";
  phase.cycles = 14;
  phase.mode = PhaseMode::kMixed;
  phase.queries_per_cycle = 1;
  phase.events = {
      ScenarioEvent{/*at_cycle=*/5, EventKind::kDeparture, /*fraction=*/0.3,
                    /*count=*/0, /*update=*/{}},
      ScenarioEvent{/*at_cycle=*/8, EventKind::kRejoin, /*fraction=*/1.0,
                    /*count=*/0, /*update=*/{}},
      ScenarioEvent{/*at_cycle=*/8, EventKind::kQueryBurst, /*fraction=*/0,
                    /*count=*/4, /*update=*/{}},
  };
  s.phases.push_back(std::move(phase));
  return s;
}

TEST(CheckpointResumeTest, ResumeOnEventCycleFiresEventsExactlyOnce) {
  const Scenario scenario = EventBoundaryScenario();
  ScenarioRunnerOptions base;
  base.users = 100;
  base.seed = 11;
  const Rendered straight = RenderReport(RunScenario(scenario, base));

  // K=5 resumes exactly on the departure event; K=8 exactly on the rejoin +
  // flash-crowd cycle. Double-firing (or skipping) either shows up in the
  // departures/rejoins/queries_issued columns of the report.
  for (const std::uint64_t k : {std::uint64_t{5}, std::uint64_t{8}}) {
    SCOPED_TRACE(k);
    const std::string path =
        TempPath("event_boundary_" + std::to_string(k) + ".ckpt");
    ScenarioRunnerOptions writer = base;
    writer.checkpoint_at = k;
    writer.checkpoint_path = path;
    RunScenario(scenario, writer);
    ScenarioRunnerOptions reader = base;
    reader.resume_path = path;
    const Rendered resumed = RenderReport(RunScenario(scenario, reader));
    EXPECT_EQ(resumed.json, straight.json);
    EXPECT_EQ(resumed.csv, straight.csv);
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Corrupt input: every mangling of a real snapshot must land in a typed
// CheckpointError — never a crash, hang, or huge allocation. The suite runs
// under ASan/UBSan in CI, so any out-of-bounds decode would be fatal here.
// ---------------------------------------------------------------------------

/// The run shape of the corruption suites' source snapshot, and of every
/// resume of a mangled copy.
ScenarioRunnerOptions CorruptionRunOptions() {
  ScenarioRunnerOptions options;
  options.users = 100;
  options.seed = 5;
  options.cycle_scale = 0.2;
  return options;
}

/// Writes the corruption suites' source snapshot (diurnal, checkpointed at
/// cycle 7) to `path`.
void WriteCorruptionSource(const Scenario& scenario, const std::string& path) {
  ScenarioRunnerOptions options = CorruptionRunOptions();
  options.checkpoint_at = 7;
  options.checkpoint_path = path;
  RunScenario(scenario, options);
}

class CheckpointCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new Scenario(MakeScenario("diurnal"));
    path_ = new std::string(TempPath("corruption_source.ckpt"));
    WriteCorruptionSource(*scenario_, *path_);
    bytes_ = new std::vector<std::uint8_t>(ReadFileBytes(*path_));
  }

  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete scenario_;
    delete path_;
    delete bytes_;
  }

  /// Writes `bytes` to a scratch file and expects both the header probe and
  /// a full resume to reject it with CheckpointError.
  void ExpectRejected(const std::vector<std::uint8_t>& bytes,
                      const std::string& expect_substring = "") {
    const std::string path = TempPath("corrupt_case.ckpt");
    WriteFileBytes(path, bytes);
    try {
      ScenarioRunnerOptions shape;
      ReadScenarioCheckpointInfo(path, &shape);
      FAIL() << "corrupt snapshot was accepted";
    } catch (const CheckpointError& e) {
      if (!expect_substring.empty()) {
        EXPECT_NE(std::string(e.what()).find(expect_substring),
                  std::string::npos)
            << e.what();
      }
    }
    ScenarioRunnerOptions options = CorruptionRunOptions();
    options.resume_path = path;
    EXPECT_THROW(RunScenario(*scenario_, options), CheckpointError);
    std::remove(path.c_str());
  }

  static Scenario* scenario_;
  static std::string* path_;
  static std::vector<std::uint8_t>* bytes_;
};

Scenario* CheckpointCorruptionTest::scenario_ = nullptr;
std::string* CheckpointCorruptionTest::path_ = nullptr;
std::vector<std::uint8_t>* CheckpointCorruptionTest::bytes_ = nullptr;

TEST_F(CheckpointCorruptionTest, IntactSnapshotLoads) {
  ScenarioRunnerOptions shape;
  EXPECT_EQ(ReadScenarioCheckpointInfo(*path_, &shape), "diurnal");
  EXPECT_EQ(shape.users, 100);
  EXPECT_EQ(shape.seed, 5u);
}

TEST_F(CheckpointCorruptionTest, MissingFileRejected) {
  ScenarioRunnerOptions shape;
  EXPECT_THROW(
      ReadScenarioCheckpointInfo(TempPath("no_such_file.ckpt"), &shape),
      CheckpointError);
}

TEST_F(CheckpointCorruptionTest, TruncationsRejected) {
  const std::vector<std::size_t> lengths = {
      0, 4, 7, 8, 11, 12, 15, 16, bytes_->size() / 2, bytes_->size() - 1};
  for (const std::size_t len : lengths) {
    SCOPED_TRACE(len);
    ExpectRejected(std::vector<std::uint8_t>(bytes_->begin(),
                                             bytes_->begin() + len));
  }
}

TEST_F(CheckpointCorruptionTest, WrongMagicRejected) {
  std::vector<std::uint8_t> mangled = *bytes_;
  mangled[0] ^= 0xff;
  ExpectRejected(mangled, "bad magic");
}

TEST_F(CheckpointCorruptionTest, FutureVersionRejected) {
  std::vector<std::uint8_t> mangled = *bytes_;
  mangled[8] = 0x63;  // version 99
  ExpectRejected(mangled, "unsupported checkpoint version");
}

TEST_F(CheckpointCorruptionTest, PastVersionRejected) {
  // Version 1 kept a snapshot reference per personal-network entry; this
  // build reads only its own layout.
  std::vector<std::uint8_t> mangled = *bytes_;
  mangled[8] = 1;
  mangled[9] = mangled[10] = mangled[11] = 0;
  ExpectRejected(mangled, "unsupported checkpoint version 1");
}

TEST_F(CheckpointCorruptionTest, BitFlipsRejectedByChecksum) {
  // Flip one bit at a spread of payload offsets; the CRC catches each.
  for (const double at : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    std::vector<std::uint8_t> mangled = *bytes_;
    const std::size_t pos =
        16 + static_cast<std::size_t>(
                 static_cast<double>(mangled.size() - 17) * at);
    SCOPED_TRACE(pos);
    mangled[pos] ^= 0x10;
    ExpectRejected(mangled, "checksum mismatch");
  }
}

TEST_F(CheckpointCorruptionTest, ResumeWithMismatchedOptionsRejected) {
  // The snapshot was written by CorruptionRunOptions(): diurnal, 100 users,
  // seed 5, cycle scale 0.2 and every other run-shape field at its default.
  // Each case resumes with one field changed and must be refused by name.
  using Mutation = std::function<void(ScenarioRunnerOptions*)>;
  const std::vector<std::pair<std::string, Mutation>> cases = {
      {"users", [](ScenarioRunnerOptions* o) { o->users = 101; }},
      {"seed", [](ScenarioRunnerOptions* o) { o->seed = 6; }},
      {"cycle_scale", [](ScenarioRunnerOptions* o) { o->cycle_scale = 0.25; }},
      {"network_size", [](ScenarioRunnerOptions* o) { o->network_size = 12; }},
      {"stored_profiles",
       [](ScenarioRunnerOptions* o) { o->stored_profiles = 8; }},
      {"alpha", [](ScenarioRunnerOptions* o) { o->alpha = 0.3; }},
      {"top_k", [](ScenarioRunnerOptions* o) { o->top_k = 5; }},
      {"similarity",
       [](ScenarioRunnerOptions* o) {
         o->similarity = SimilarityMetric::kJaccard;
       }},
      {"latency",
       [](ScenarioRunnerOptions* o) {
         o->latency = LatencySpec{LatencyKind::kFixed, /*fixed=*/2};
       }},
      {"arrivals",
       [](ScenarioRunnerOptions* o) {
         o->arrivals = ArrivalSpec{};
         o->arrivals->kind = ArrivalKind::kPoisson;
         o->arrivals->rate = 2.0;
       }},
  };
  for (const auto& [field, mutate] : cases) {
    SCOPED_TRACE(field);
    ScenarioRunnerOptions options = CorruptionRunOptions();
    mutate(&options);
    options.resume_path = *path_;
    try {
      RunScenario(*scenario_, options);
      ADD_FAILURE() << field << " mismatch was accepted";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("written with " + field + " = "),
                std::string::npos)
          << e.what();
    }
  }
  // The scenario itself is part of the identity too.
  ScenarioRunnerOptions options = CorruptionRunOptions();
  options.resume_path = *path_;
  try {
    RunScenario(MakeScenario("steady-state"), options);
    ADD_FAILURE() << "scenario mismatch was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("written with scenario = diurnal"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckpointHeaderTest, EveryRunShapeFieldRoundTrips) {
  // Every run-shape field off its default; the header must hand each back,
  // and the decoded options must resume the run to the straight report.
  const Scenario scenario = MakeScenario("open-loop-steady");
  ScenarioRunnerOptions written;
  written.users = 90;
  written.seed = 17;
  written.cycle_scale = 0.15;
  written.network_size = 12;
  written.stored_profiles = 6;
  written.alpha = 0.3;
  written.top_k = 7;
  written.similarity = SimilarityMetric::kJaccard;
  written.latency = LatencySpec{LatencyKind::kUniform, /*fixed=*/0, /*lo=*/1,
                                /*hi=*/3};
  written.arrivals = ArrivalSpec{};
  written.arrivals->kind = ArrivalKind::kTrace;
  written.arrivals->trace = {1.5, 0.0, 3.0};
  written.arrivals->slo_cycles = 5;
  written.arrivals->recall_target = 0.8;
  const Rendered straight = RenderReport(RunScenario(scenario, written));

  const std::string path = TempPath("header_round_trip.ckpt");
  ScenarioRunnerOptions writer = written;
  writer.checkpoint_at = 5;
  writer.checkpoint_path = path;
  RunScenario(scenario, writer);

  ScenarioRunnerOptions read;
  EXPECT_EQ(ReadScenarioCheckpointInfo(path, &read), scenario.name);
  EXPECT_EQ(read.users, written.users);
  EXPECT_EQ(read.seed, written.seed);
  EXPECT_EQ(read.cycle_scale, written.cycle_scale);
  EXPECT_EQ(read.network_size, written.network_size);
  EXPECT_EQ(read.stored_profiles, written.stored_profiles);
  EXPECT_EQ(read.alpha, written.alpha);
  EXPECT_EQ(read.top_k, written.top_k);
  EXPECT_EQ(read.similarity, written.similarity);
  ASSERT_TRUE(read.latency.has_value());
  EXPECT_EQ(read.latency->Name(), written.latency->Name());
  EXPECT_EQ(read.arrivals, written.arrivals);
  // Only the run shape is decoded.
  EXPECT_EQ(read.threads, 0);
  EXPECT_FALSE(read.checkpoint_at.has_value());
  EXPECT_TRUE(read.resume_path.empty());

  read.resume_path = path;
  const Rendered resumed = RenderReport(RunScenario(scenario, read));
  EXPECT_EQ(resumed.json, straight.json);
  EXPECT_EQ(resumed.csv, straight.csv);
  std::remove(path.c_str());
}

TEST(CheckpointHeaderTest, NonPositiveNetworkSizesAreOneDefault) {
  // Every network size <= 0 means users / 10 (at most 500). A file written
  // with -1 resumes under 0 and the other way round, to the straight
  // report; a positive size must still match exactly (see
  // ResumeWithMismatchedOptionsRejected).
  const Scenario scenario = MakeScenario("diurnal");
  ScenarioRunnerOptions base = CorruptionRunOptions();
  const Rendered straight = RenderReport(RunScenario(scenario, base));
  for (const int written : {-1, 0}) {
    const int resumed_with = written == 0 ? -1 : 0;
    SCOPED_TRACE("written " + std::to_string(written) + ", resumed with " +
                 std::to_string(resumed_with));
    const std::string path = TempPath("network_size_default.ckpt");
    ScenarioRunnerOptions writer = base;
    writer.network_size = written;
    writer.checkpoint_at = 3;
    writer.checkpoint_path = path;
    RunScenario(scenario, writer);
    ScenarioRunnerOptions reader = base;
    reader.network_size = resumed_with;
    reader.resume_path = path;
    const Rendered resumed = RenderReport(RunScenario(scenario, reader));
    EXPECT_EQ(resumed.json, straight.json);
    EXPECT_EQ(resumed.csv, straight.csv);
    std::remove(path.c_str());
  }
}

TEST_F(CheckpointCorruptionTest, CheckpointPastTimelineRejected) {
  ScenarioRunnerOptions options;
  options.users = 100;
  options.seed = 5;
  options.cycle_scale = 0.2;
  options.checkpoint_at = 100000;
  options.checkpoint_path = TempPath("never_written.ckpt");
  EXPECT_THROW(RunScenario(*scenario_, options), std::invalid_argument);

  // Inside the budget, but the phase meets its stop target (cycle 46)
  // before the timeline gets there.
  ScenarioRunnerOptions early;
  early.users = 400;
  early.seed = 1;
  early.checkpoint_at = 100;
  early.checkpoint_path = TempPath("never_reached.ckpt");
  try {
    RunScenario(MakeScenario("convergence"), early);
    FAIL() << "an unreached checkpoint cycle was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("never reached"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(std::ifstream(early.checkpoint_path).good());
}

// ---------------------------------------------------------------------------
// Hostile snapshots: a CRC-valid file whose open query ids name no live
// query must fail with a CheckpointError, never abort in a query lookup.
// The tests locate an open-query list in a real snapshot, set its first id
// to 0 (ids start at 1, so 0 is never issued) and re-frame the payload with
// a fresh checksum.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kSectionMarker = 0x7a9b1c2du;

/// The little-endian `bytes`-byte integer at `at`.
std::uint64_t Peek(const std::vector<std::uint8_t>& b, std::size_t at,
                   int bytes) {
  std::uint64_t v = 0;
  for (int i = bytes - 1; i >= 0; --i) v = (v << 8) | b[at + i];
  return v;
}

std::uint64_t PeekU64(const std::vector<std::uint8_t>& b, std::size_t at) {
  return Peek(b, at, 8);
}

std::uint32_t PeekU32(const std::vector<std::uint8_t>& b, std::size_t at) {
  return static_cast<std::uint32_t>(Peek(b, at, 4));
}

/// Walks `count` open-query entries from `at`: `head` bytes (the id first),
/// then a u64 n and n u32 reference items. Returns the offset past them, or
/// 0 when they run off the payload.
std::size_t SkipOpenQueries(const std::vector<std::uint8_t>& b, std::size_t at,
                            std::uint64_t count, std::size_t head) {
  for (std::uint64_t q = 0; q < count; ++q) {
    if (at + head + 8 > b.size()) return 0;
    const std::uint64_t n = PeekU64(b, at + head);
    if (n > b.size()) return 0;
    at += head + 8 + 4 * n;
  }
  return at <= b.size() ? at : 0;
}

/// Checkpoints `cfg` at K, applies `patch` to the payload, re-frames it and
/// expects the resume to throw a CheckpointError naming a dead query id.
void ExpectDeadQueryIdRejected(
    const RunConfig& cfg, std::uint64_t k,
    const std::function<void(std::vector<std::uint8_t>*)>& patch) {
  const Scenario scenario = MakeScenario(cfg.scenario);
  const std::string path = TempPath("hostile_" + cfg.scenario + ".ckpt");
  ScenarioRunnerOptions writer = BaseOptions(cfg);
  writer.checkpoint_at = k;
  writer.checkpoint_path = path;
  RunScenario(scenario, writer);

  std::vector<std::uint8_t> payload = ReadCheckpointPayload(path);
  patch(&payload);
  if (::testing::Test::HasFatalFailure()) return;
  CheckpointWriter framed;
  framed.Bytes(payload.data(), payload.size());
  WriteCheckpointFile(path, framed);

  ScenarioRunnerOptions reader = BaseOptions(cfg);
  reader.resume_path = path;
  try {
    RunScenario(scenario, reader);
    ADD_FAILURE() << "a dead query id was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("query id 0 names no live query"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

/// Sets the u64 query id at `at` to 0 after checking it named a query.
void KillQueryId(std::vector<std::uint8_t>* payload, std::size_t at) {
  ASSERT_NE(PeekU64(*payload, at), 0u);
  for (std::size_t i = 0; i < 8; ++i) (*payload)[at + i] = 0;
}

TEST(CheckpointHostileTest, DeadServingTrackerQueryIdIsRejected) {
  // Mid-serve with two-cycle latency, the tracker holds open queries.
  RunConfig cfg{"open-loop-steady"};
  cfg.cycle_scale = 0.25;
  cfg.latency = LatencySpec{LatencyKind::kFixed, /*fixed=*/2};
  const ArrivalSpec arrivals = MakeScenario(cfg.scenario).arrivals;
  ExpectDeadQueryIdRejected(cfg, 15, [&](std::vector<std::uint8_t>* payload) {
    // The tracker section: u64 slo_cycles, f64 recall_target, u64 count,
    // then per query (u64 id, u64 issue cycle, u32 querier, u8 flag, the
    // reference), then a section marker.
    std::uint64_t recall_bits = 0;
    std::memcpy(&recall_bits, &arrivals.recall_target, sizeof(recall_bits));
    std::vector<std::size_t> found;
    for (std::size_t p = 0; p + 32 <= payload->size(); ++p) {
      if (PeekU64(*payload, p) != arrivals.slo_cycles ||
          PeekU64(*payload, p + 8) != recall_bits) {
        continue;
      }
      const std::uint64_t count = PeekU64(*payload, p + 16);
      if (count == 0 || count > payload->size()) continue;
      const std::size_t end =
          SkipOpenQueries(*payload, p + 24, count, /*head=*/21);
      if (end != 0 && end + 4 <= payload->size() &&
          PeekU32(*payload, end) == kSectionMarker) {
        found.push_back(p + 24);
      }
    }
    ASSERT_EQ(found.size(), 1u) << "tracker section not located";
    KillQueryId(payload, found[0]);
  });
}

TEST(CheckpointHostileTest, DeadClosedLoopQueryIdIsRejected) {
  // update-storm issues one closed-loop query per storm-phase cycle from
  // timeline cycle 30, so at K = 35 the runner holds five open queries.
  RunConfig cfg{"update-storm"};
  cfg.cycle_scale = 1.0;
  ExpectDeadQueryIdRejected(cfg, 35, [](std::vector<std::uint8_t>* payload) {
    // The runner section ends with u64 count, then per query (u64 id, the
    // reference), then the section marker.
    std::vector<std::size_t> found;
    for (std::size_t p = 0; p + 12 <= payload->size(); ++p) {
      if (PeekU64(*payload, p) != 5) continue;
      if (SkipOpenQueries(*payload, p + 8, 5, /*head=*/8) + 4 ==
          payload->size()) {
        found.push_back(p + 8);
      }
    }
    ASSERT_EQ(found.size(), 1u) << "open-query list not located";
    ASSERT_EQ(PeekU32(*payload, payload->size() - 4), kSectionMarker);
    KillQueryId(payload, found[0]);
  });
}

TEST(CheckpointHostileTest, PhaseBaselineAheadOfTheCountersIsRejected) {
  // At the top of a phase's first cycle its traffic baseline equals the
  // restored traffic counters, and the runner section ends with the three
  // baselines (traffic, delivery, serving), the untraced flag, the phase's
  // online-cycle sum, an empty open-query list and the section marker. A
  // baseline counter past the counters would make the phase's close
  // subtract a larger snapshot from a smaller one.
  const Scenario scenario = MakeScenario("diurnal");
  const std::string path = TempPath("baseline_ahead.ckpt");
  ScenarioRunnerOptions writer = CorruptionRunOptions();
  writer.checkpoint_at = ScaledPhaseCycles(scenario.phases[0], 0.2);
  writer.checkpoint_path = path;
  RunScenario(scenario, writer);
  std::vector<std::uint8_t> payload = ReadCheckpointPayload(path);
  ASSERT_EQ(PeekU32(payload, payload.size() - 4), kSectionMarker);
  ASSERT_EQ(PeekU64(payload, payload.size() - 12), 0u);  // open queries
  const std::size_t traffic =
      payload.size() - 4 - 8 - 8 - 1 -
      8 * (5 + 2 * kQueryLatencyBuckets) - 8 * (5 + kDeliveryLagBuckets) -
      16 * static_cast<std::size_t>(MessageType::kCount);
  // The first message type's count, raised by 2^48.
  payload[traffic + 6] += 1;
  CheckpointWriter framed;
  framed.Bytes(payload.data(), payload.size());
  WriteCheckpointFile(path, framed);

  ScenarioRunnerOptions reader = CorruptionRunOptions();
  reader.resume_path = path;
  try {
    RunScenario(scenario, reader);
    ADD_FAILURE() << "a baseline ahead of the counters was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("baselines run ahead"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

/// One seeded mangling of a checkpoint payload: overwrite 1-8 bytes,
/// truncate, or duplicate a span in place. Returns what it did.
std::string MutatePayload(std::vector<std::uint8_t>* payload, Rng* rng) {
  const std::size_t size = payload->size();
  switch (rng->NextUint64(3)) {
    case 0: {
      const std::uint64_t n = 1 + rng->NextUint64(8);
      std::string what = "overwrite";
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::size_t at = static_cast<std::size_t>(rng->NextUint64(size));
        (*payload)[at] ^= static_cast<std::uint8_t>(1 + rng->NextUint64(255));
        what += " @" + std::to_string(at);
      }
      return what;
    }
    case 1: {
      const std::size_t keep = static_cast<std::size_t>(rng->NextUint64(size));
      payload->resize(keep);
      return "truncate to " + std::to_string(keep);
    }
    default: {
      const std::size_t from = static_cast<std::size_t>(rng->NextUint64(size));
      const std::size_t len = static_cast<std::size_t>(
          1 + rng->NextUint64(std::min<std::size_t>(64, size - from)));
      const std::vector<std::uint8_t> span(
          payload->begin() + static_cast<std::ptrdiff_t>(from),
          payload->begin() + static_cast<std::ptrdiff_t>(from + len));
      payload->insert(payload->begin() + static_cast<std::ptrdiff_t>(from),
                      span.begin(), span.end());
      return "duplicate " + std::to_string(len) + " bytes @" +
             std::to_string(from);
    }
  }
}

TEST(CheckpointHostileTest, HeaderSpecsOutsideTheirLimitsAreRejected) {
  // The run header stores the arrival override's rate and the latency
  // model's delay as raw numbers; values the spec parsers refuse must not
  // come back through a checkpoint either.
  const Scenario scenario = MakeScenario("open-loop-steady");
  const std::string source = TempPath("header_specs_source.ckpt");
  ScenarioRunnerOptions options = CorruptionRunOptions();
  options.arrivals = scenario.arrivals;
  options.arrivals->rate = 2.718281828;
  options.latency = LatencySpec{LatencyKind::kFixed, /*fixed=*/3};
  options.checkpoint_at = 3;
  options.checkpoint_path = source;
  RunScenario(scenario, options);
  const std::vector<std::uint8_t> pristine = ReadCheckpointPayload(source);
  std::remove(source.c_str());

  // Offset of the first u64 field equal to `value` that follows `prefix`
  // bytes matching `tag` (a u32; no tag when prefix is 0).
  const auto find = [&](std::uint64_t value, std::size_t prefix,
                        std::uint32_t tag) {
    for (std::size_t p = 0; p + prefix + 8 <= pristine.size(); ++p) {
      if ((prefix == 0 || PeekU32(pristine, p) == tag) &&
          PeekU64(pristine, p + prefix) == value) {
        return p + prefix;
      }
    }
    return std::size_t{0};
  };
  const auto expect_rejected = [&](std::size_t at, std::uint64_t value) {
    ASSERT_NE(at, 0u) << "field not located";
    std::vector<std::uint8_t> payload = pristine;
    for (std::size_t i = 0; i < 8; ++i) {
      payload[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
    const std::string path = TempPath("header_specs_case.ckpt");
    CheckpointWriter framed;
    framed.Bytes(payload.data(), payload.size());
    WriteCheckpointFile(path, framed);
    ScenarioRunnerOptions shape;
    EXPECT_THROW(ReadScenarioCheckpointInfo(path, &shape), CheckpointError);
    std::remove(path.c_str());
  };
  const auto bits = [](double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  expect_rejected(find(bits(2.718281828), 0, 0), bits(1e10));
  // The latency block starts (u32 kind, u64 fixed delay).
  expect_rejected(
      find(3, 4, static_cast<std::uint32_t>(LatencyKind::kFixed)),
      kMaxLatencyCycles + 1);
}

/// Loads, into a 40-user system, an eager-state section whose one query
/// lists `reached` as its reached users; returns the CheckpointError's
/// message, or an empty string when the load succeeded.
std::string LoadEagerStateReaching(const std::vector<UserId>& reached) {
  test::TestSystem env({.users = 40});
  CheckpointWriter out;
  out.U64(1);  // queries
  ActiveQuery(/*id=*/1, env.QueryOf(0), /*k=*/10, /*expected=*/20)
      .SaveState(&out);
  out.Users(reached, "reached user");
  out.I64(0);  // active tasks
  out.U8(0);   // finalized
  out.U64(0);  // timeout re-issues
  out.U64(0);  // stale messages dropped
  out.U64(0);  // late results of forgotten queries
  out.U64(2);  // next query id
  out.U64(1);  // next task epoch
  out.Sentinel();
  CheckpointReader in(out.buffer().data(), out.buffer().size());
  in.SetPopulation(40);
  try {
    env.system->eager().LoadState(&in);
  } catch (const CheckpointError& e) {
    return e.what();
  }
  return "";
}

TEST(CheckpointHostileTest, ReachedUsersOutOfOrderAreRejected) {
  // The writer lists each query's reached users strictly ascending, and the
  // protocol keeps them as that list; a repeated or descending id would
  // break its binary searches.
  ASSERT_EQ(LoadEagerStateReaching({0, 5, 9}), "");
  for (const std::vector<UserId>& reached :
       {std::vector<UserId>{0, 5, 5}, std::vector<UserId>{0, 9, 5}}) {
    EXPECT_NE(LoadEagerStateReaching(reached).find(
                  "reached user list not strictly ascending"),
              std::string::npos)
        << reached[1] << ", " << reached[2];
  }
}

TEST(CheckpointHostileTest, UsedProfileOwnersOutOfOrderAreRejected) {
  // A query's used-profile owners, saved strictly ascending after its inbox;
  // close-outs merge new owners into that list.
  test::TestSystem env({.users = 40});
  ActiveQuery query(/*id=*/1, env.QueryOf(0), /*k=*/10, /*expected=*/20);
  PartialResultMessage partial;
  partial.entries = {{7, 3}};
  partial.used_profiles = {31, 13, 23};
  query.DeliverPartialResult(std::move(partial));
  query.EndOfCycle(/*complete=*/false);
  ASSERT_EQ(query.used_profiles(), (std::vector<UserId>{13, 23, 31}));
  CheckpointWriter out;
  query.SaveState(&out);
  const std::vector<std::uint8_t>& pristine = out.buffer();
  // The list: u64 count 3, then the three u32 owners.
  const std::vector<std::uint32_t> list = {3, 0, 13, 23, 31};
  std::vector<std::size_t> found;
  for (std::size_t p = 0; p + 4 * list.size() <= pristine.size(); ++p) {
    bool match = true;
    for (std::size_t w = 0; w < list.size() && match; ++w) {
      std::uint32_t word = 0;
      std::memcpy(&word, pristine.data() + p + 4 * w, 4);
      match = word == list[w];
    }
    if (match) found.push_back(p);
  }
  ASSERT_EQ(found.size(), 1u) << "used-profile list not located";

  const auto load = [&](const std::vector<std::uint8_t>& bytes) {
    CheckpointReader in(bytes.data(), bytes.size());
    in.SetPopulation(40);
    ActiveQuery loaded(/*id=*/0, QuerySpec{}, /*k=*/1, /*expected=*/0);
    loaded.LoadState(&in);
    return loaded.used_profiles();
  };
  EXPECT_EQ(load(pristine), query.used_profiles());
  for (const auto& [second, third] :
       {std::pair<UserId, UserId>{23, 23}, std::pair<UserId, UserId>{31, 23}}) {
    std::vector<std::uint8_t> bytes = pristine;
    std::memcpy(bytes.data() + found[0] + 12, &second, 4);
    std::memcpy(bytes.data() + found[0] + 16, &third, 4);
    try {
      load(bytes);
      ADD_FAILURE() << "accepted used-profile owners 13, " << second << ", "
                    << third;
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "used-profile owner list not strictly ascending"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CheckpointHostileTest, SeededMutationsFailCleanly) {
  // Each case mangles the corruption suites' snapshot, re-frames it with a
  // valid checksum and resumes. The decoder must reject it with a
  // CheckpointError or restore a state that runs to completion: no crash,
  // hang, other exception or sanitizer report.
  constexpr int kCases = 64;
  const Scenario scenario = MakeScenario("diurnal");
  const std::string source = TempPath("mutation_source.ckpt");
  WriteCorruptionSource(scenario, source);
  const std::vector<std::uint8_t> pristine = ReadCheckpointPayload(source);
  const std::string path = TempPath("mutation_case.ckpt");
  int rejected = 0;
  int resumed = 0;
  for (int c = 0; c < kCases; ++c) {
    Rng rng(0x6d757461746500ULL + static_cast<std::uint64_t>(c));
    std::vector<std::uint8_t> payload = pristine;
    const std::string what = MutatePayload(&payload, &rng);
    SCOPED_TRACE("case " + std::to_string(c) + ": " + what);
    CheckpointWriter framed;
    framed.Bytes(payload.data(), payload.size());
    WriteCheckpointFile(path, framed);
    ScenarioRunnerOptions options = CorruptionRunOptions();
    options.resume_path = path;
    try {
      RunScenario(scenario, options);
      ++resumed;
    } catch (const CheckpointError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "not a CheckpointError: " << e.what();
    }
  }
  std::remove(path.c_str());
  std::remove(source.c_str());
  // Both outcomes occur, so the cases reach past the framing into the
  // decoder and the resumed run.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(resumed, 0);
}

TEST(CheckpointHostileTest, SeededMutationsOfMessagesInFlightFailCleanly) {
  // The corruption suites' snapshot holds no message in flight. This one
  // (cold-start-query under uniform:1:3 latency, with open-loop arrivals,
  // checkpointed at cycle 4) holds lazy and eager messages on the wire.
  // Each case overwrites 1-4 bytes past the profile pool, where the nodes,
  // the queued messages, the queries and the runner state live.
  constexpr int kCases = 64;
  const Scenario scenario = MakeScenario("cold-start-query");
  ScenarioRunnerOptions base;
  base.users = 100;
  base.seed = 5;
  base.cycle_scale = 0.5;
  base.latency = LatencySpec{LatencyKind::kUniform, /*fixed=*/0, /*lo=*/1,
                             /*hi=*/3};
  base.arrivals = scenario.arrivals;
  base.arrivals->kind = ArrivalKind::kPoisson;
  base.arrivals->rate = 3;
  const std::string source = TempPath("in_flight_source.ckpt");
  ScenarioRunnerOptions writer = base;
  writer.checkpoint_at = 4;
  writer.checkpoint_path = source;
  RunScenario(scenario, writer);
  const std::vector<std::uint8_t> pristine = ReadCheckpointPayload(source);
  std::remove(source.c_str());
  // The payload opens with the run header and the profile pool, each
  // closed by a section marker.
  std::size_t body = 0;
  for (int closed = 0; closed < 2; ++body) {
    ASSERT_LT(body + 4, pristine.size());
    if (PeekU32(pristine, body) == kSectionMarker) {
      ++closed;
      body += 3;
    }
  }
  const std::string path = TempPath("in_flight_case.ckpt");
  int rejected = 0;
  int resumed = 0;
  for (int c = 0; c < kCases; ++c) {
    Rng rng(0x696e666c69676874ULL + static_cast<std::uint64_t>(c));
    std::vector<std::uint8_t> payload = pristine;
    std::string what = "overwrite";
    for (std::uint64_t n = 1 + rng.NextUint64(4); n > 0; --n) {
      const std::size_t at = body + static_cast<std::size_t>(
                                        rng.NextUint64(payload.size() - body));
      payload[at] ^= static_cast<std::uint8_t>(1 + rng.NextUint64(255));
      what += " @" + std::to_string(at);
    }
    SCOPED_TRACE("case " + std::to_string(c) + ": " + what);
    CheckpointWriter framed;
    framed.Bytes(payload.data(), payload.size());
    WriteCheckpointFile(path, framed);
    ScenarioRunnerOptions options = base;
    options.resume_path = path;
    try {
      RunScenario(scenario, options);
      ++resumed;
    } catch (const CheckpointError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "not a CheckpointError: " << e.what();
    }
  }
  std::remove(path.c_str());
  EXPECT_GT(rejected, 0);
  EXPECT_GT(resumed, 0);
}

// ---------------------------------------------------------------------------
// The writer's bytes, pinned: a first-phase checkpoint holds no closed phase
// and so no wall-clock figure. cold-start-query under uniform:1:3 latency,
// with an open-loop arrival override and a tracer, checkpointed at cycle 8,
// holds every record kind: lazy and eager messages in flight, closed-loop
// and tracked queries, and the trace cursor. Any change to the size or the
// CRC-32 is a format change: bump kCheckpointVersion and record them anew.
// ---------------------------------------------------------------------------

TEST(CheckpointWriterTest, FirstPhaseSnapshotOfEveryRecordKindIsPinned) {
  const Scenario scenario = MakeScenario("cold-start-query");
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const std::string path = TempPath("pinned.ckpt");
    ScenarioRunnerOptions options;
    options.users = 150;
    options.seed = 5;
    options.threads = threads;
    options.latency = LatencySpec{LatencyKind::kUniform, /*fixed=*/0,
                                  /*lo=*/1, /*hi=*/3};
    options.arrivals = scenario.arrivals;
    options.arrivals->kind = ArrivalKind::kPoisson;
    options.arrivals->rate = 3;
    options.checkpoint_at = 8;
    options.checkpoint_path = path;
    std::ostringstream trace;
    JsonlTraceSink sink(&trace);
    Tracer tracer(&sink);
    options.tracer = &tracer;
    RunScenario(scenario, options);
    const std::vector<std::uint8_t> bytes = ReadFileBytes(path);
    std::remove(path.c_str());
    EXPECT_EQ(bytes.size(), 581918u);
    EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 0x5939ef57u);
  }
}

// ---------------------------------------------------------------------------
// Golden v2 snapshot: a checked-in file written by the version-2 codec
// (diurnal, 120 users, seed 3, cycle scale 0.2, checkpointed at cycle 7).
// Future builds must keep reading it (or bump kCheckpointVersion and
// regenerate it in a documented commit). It only reads: drift in the
// writer's bytes shows up in CheckpointWriterTest above.
// ---------------------------------------------------------------------------

TEST(CheckpointGoldenTest, V2SnapshotStillResumesByteIdentically) {
  const std::string golden =
      std::string(P3Q_SOURCE_DIR) + "/tests/golden/checkpoint_v2.ckpt";
  ScenarioRunnerOptions options;
  const std::string name = ReadScenarioCheckpointInfo(golden, &options);
  EXPECT_EQ(name, "diurnal");
  EXPECT_EQ(options.users, 120);
  EXPECT_EQ(options.seed, 3u);
  ASSERT_TRUE(HasScenario(name));

  const Scenario scenario = MakeScenario(name);
  const Rendered straight = RenderReport(RunScenario(scenario, options));

  ScenarioRunnerOptions reader = options;
  reader.resume_path = golden;
  const Rendered resumed = RenderReport(RunScenario(scenario, reader));
  EXPECT_EQ(resumed.json, straight.json);
  EXPECT_EQ(resumed.csv, straight.csv);
}

}  // namespace
}  // namespace p3q
