// Differential tests of the eager query path against the implementations it
// replaced.
//
// - Scoring: Profile::ScoreQuery screens each action's tag against a
//   256-bit mask of the query's tags before the exact search and appends to
//   a caller's buffer; the oracle binary-searches the query tags for every
//   action and returns a fresh vector.
// - Merging: RankQueryScores sorts the appended hits by item, sums them and
//   ranks them into a list of exact capacity; the oracle sums into a hash
//   map, as BuildPartialResult and CentralizedTopK did.
// - Top-k: IncrementalNra keeps lists, candidates and seen lists flat; the
//   oracle keeps a node-based map of candidates that each own a seen-list
//   vector and rebuilds a std::map of cohorts in every Process.
//
// Seeded DeliciousLike profiles and queries, hand-made edge cases and
// seeded NRA operation streams must give equal answers, equal scan counts
// and equal checkpoint bytes after every step. The hostile-input test
// mutates saved NRA sections: each must be rejected with a CheckpointError
// or load into an accumulator whose checkpoint round-trips and agrees with
// the oracle's.
#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/topk.h"
#include "dataset/query_gen.h"
#include "profile/profile.h"
#include "profile/score_kernel.h"
#include "sim/checkpoint.h"
#include "test_util.h"

namespace p3q {
namespace {

// ---------------------------------------------------------------------------
// Oracles: the pre-rewrite implementations (reference semantics only).
// ---------------------------------------------------------------------------

/// The original Profile::ScoreQuery: a binary search of the query tags for
/// every action.
std::vector<ItemScore> OracleScoreQuery(const Profile& profile,
                                        const std::vector<TagId>& tags) {
  std::vector<ItemScore> scores;
  ItemId current = kInvalidItem;
  std::uint32_t count = 0;
  for (ActionKey a : profile.actions()) {
    const ItemId item = ActionItem(a);
    if (item != current) {
      if (count > 0) scores.emplace_back(current, count);
      current = item;
      count = 0;
    }
    if (std::binary_search(tags.begin(), tags.end(), ActionTag(a))) ++count;
  }
  if (count > 0) scores.emplace_back(current, count);
  return scores;
}

/// The original partial-result merge: per-profile vectors summed into a
/// hash map, then ranked by score descending, item ascending.
std::vector<ItemScore> OracleMerge(const std::vector<const Profile*>& profiles,
                                   const std::vector<TagId>& tags) {
  std::unordered_map<ItemId, std::uint32_t> scores;
  for (const Profile* profile : profiles) {
    for (const auto& [item, score] : OracleScoreQuery(*profile, tags)) {
      scores[item] += score;
    }
  }
  std::vector<ItemScore> entries(scores.begin(), scores.end());
  std::sort(entries.begin(), entries.end(),
            [](const ItemScore& a, const ItemScore& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  return entries;
}

/// The original IncrementalNra: a hash map of candidates, each owning its
/// seen-list vector, per-list entry vectors, and a std::map of cohorts per
/// Process.
class OracleNra {
 public:
  explicit OracleNra(int k) : k_(k < 1 ? 1 : k) {}

  void AddList(std::vector<ItemScore> entries) {
    List list;
    list.entries = std::move(entries);
    lists_.push_back(std::move(list));
  }

  std::size_t Process() {
    const std::size_t before = total_scanned_;
    if (StopConditionHolds()) return 0;
    std::map<std::size_t, std::vector<std::uint32_t>> pending;
    for (std::uint32_t idx = 0; idx < lists_.size(); ++idx) {
      if (!lists_[idx].Exhausted()) {
        pending[lists_[idx].next_pos].push_back(idx);
      }
    }
    std::size_t sweeps = 0;
    std::size_t next_check = 1;
    while (!pending.empty()) {
      auto it = pending.begin();
      const std::size_t pos = it->first;
      std::vector<std::uint32_t> cohort = std::move(it->second);
      pending.erase(it);
      for (std::uint32_t idx : cohort) {
        ConsumeEntry(idx, pos);
        if (!lists_[idx].Exhausted()) pending[pos + 1].push_back(idx);
      }
      ++sweeps;
      if (sweeps >= next_check) {
        next_check *= 2;
        if (StopConditionHolds()) break;
      }
    }
    return total_scanned_ - before;
  }

  std::size_t DrainAll() {
    const std::size_t before = total_scanned_;
    for (std::uint32_t idx = 0; idx < lists_.size(); ++idx) {
      while (!lists_[idx].Exhausted()) {
        ConsumeEntry(idx, lists_[idx].next_pos);
      }
    }
    return total_scanned_ - before;
  }

  std::vector<RankedItem> TopK() const {
    std::uint64_t tail = 0;
    for (const List& list : lists_) {
      if (!list.Exhausted() && list.last_seen != kUnknown) {
        tail += list.last_seen;
      }
    }
    std::vector<RankedItem> ranked;
    ranked.reserve(candidates_.size());
    for (const auto& [item, cand] : candidates_) {
      ranked.push_back(RankedItem{item, cand.worst, BestCase(cand, tail)});
    }
    std::sort(ranked.begin(), ranked.end(), Before);
    if (ranked.size() > static_cast<std::size_t>(k_)) {
      ranked.resize(static_cast<std::size_t>(k_));
    }
    return ranked;
  }

  bool Converged() const { return StopConditionHolds(); }
  std::size_t num_lists() const { return lists_.size(); }
  std::size_t num_candidates() const { return candidates_.size(); }
  std::size_t total_entries_scanned() const { return total_scanned_; }

  void SaveState(CheckpointWriter* out) const {
    out->U32(static_cast<std::uint32_t>(k_));
    out->U64(total_scanned_);
    out->U64(lists_.size());
    for (const List& list : lists_) {
      out->U64(list.entries.size());
      for (const auto& [item, score] : list.entries) {
        out->U32(item);
        out->U32(score);
      }
      out->U64(list.next_pos);
      out->U64(list.last_seen);
    }
    std::vector<ItemId> items;
    items.reserve(candidates_.size());
    for (const auto& [item, cand] : candidates_) items.push_back(item);
    std::sort(items.begin(), items.end());
    out->U64(items.size());
    for (ItemId item : items) {
      const Candidate& cand = candidates_.at(item);
      out->U32(item);
      out->U64(cand.worst);
      out->U64(cand.seen_lists.size());
      for (std::uint32_t idx : cand.seen_lists) out->U32(idx);
    }
  }

  static OracleNra LoadState(CheckpointReader* in) {
    OracleNra nra(static_cast<int>(in->U32()));
    nra.total_scanned_ = in->U64();
    const std::uint64_t num_lists = in->Count(24);
    for (std::uint64_t i = 0; i < num_lists; ++i) {
      List list;
      const std::uint64_t num_entries = in->Count(8);
      for (std::uint64_t e = 0; e < num_entries; ++e) {
        const ItemId item = in->U32();
        const std::uint32_t score = in->U32();
        list.entries.emplace_back(item, score);
      }
      list.next_pos = static_cast<std::size_t>(in->U64());
      list.last_seen = in->U64();
      if (list.next_pos > list.entries.size()) {
        throw CheckpointError(
            "corrupt checkpoint: NRA list cursor past the list's end");
      }
      nra.lists_.push_back(std::move(list));
    }
    const std::uint64_t num_candidates = in->Count(20);
    for (std::uint64_t c = 0; c < num_candidates; ++c) {
      const ItemId item = in->U32();
      Candidate cand;
      cand.worst = in->U64();
      const std::uint64_t num_seen = in->Count(4);
      for (std::uint64_t s = 0; s < num_seen; ++s) {
        const std::uint32_t idx = in->U32();
        if (idx >= nra.lists_.size()) {
          throw CheckpointError(
              "corrupt checkpoint: NRA candidate references an unknown list");
        }
        cand.seen_lists.push_back(idx);
      }
      nra.candidates_.emplace(item, std::move(cand));
    }
    return nra;
  }

 private:
  static constexpr std::uint64_t kUnknown = ~std::uint64_t{0};
  struct List {
    std::vector<ItemScore> entries;
    std::size_t next_pos = 0;
    std::uint64_t last_seen = kUnknown;
    bool Exhausted() const { return next_pos >= entries.size(); }
  };
  struct Candidate {
    std::uint64_t worst = 0;
    std::vector<std::uint32_t> seen_lists;
  };

  static bool Before(const RankedItem& a, const RankedItem& b) {
    if (a.worst != b.worst) return a.worst > b.worst;
    if (a.best != b.best) return a.best > b.best;
    return a.item < b.item;
  }

  void ConsumeEntry(std::uint32_t idx, std::size_t pos) {
    List& list = lists_[idx];
    const auto& [item, score] = list.entries[pos];
    list.last_seen = score;
    list.next_pos = pos + 1;
    Candidate& cand = candidates_[item];
    cand.worst += score;
    cand.seen_lists.push_back(idx);
    ++total_scanned_;
  }

  std::uint64_t ActiveTail() const {
    std::uint64_t tail = 0;
    for (const List& list : lists_) {
      if (list.Exhausted()) continue;
      if (list.last_seen == kUnknown) return kUnknown;
      tail += list.last_seen;
    }
    return tail;
  }

  std::uint64_t BestCase(const Candidate& c, std::uint64_t tail) const {
    std::uint64_t best = c.worst + tail;
    for (std::uint32_t idx : c.seen_lists) {
      const List& list = lists_[idx];
      if (!list.Exhausted()) best -= list.last_seen;
    }
    return best;
  }

  bool StopConditionHolds() const {
    const std::uint64_t tail = ActiveTail();
    if (tail == kUnknown) return false;
    if (candidates_.empty()) return tail == 0;
    if (candidates_.size() <= static_cast<std::size_t>(k_)) return tail == 0;
    std::vector<RankedItem> all;
    all.reserve(candidates_.size());
    for (const auto& [item, cand] : candidates_) {
      all.push_back(RankedItem{item, cand.worst, BestCase(cand, tail)});
    }
    std::nth_element(all.begin(), all.begin() + (k_ - 1), all.end(), Before);
    const std::uint64_t kth_worst = all[static_cast<std::size_t>(k_) - 1].worst;
    std::uint64_t max_other_best = 0;
    for (std::size_t i = static_cast<std::size_t>(k_); i < all.size(); ++i) {
      max_other_best = std::max(max_other_best, all[i].best);
    }
    max_other_best = std::max(max_other_best, tail);
    return kth_worst >= max_other_best;
  }

  int k_;
  std::vector<List> lists_;
  std::unordered_map<ItemId, Candidate> candidates_;
  std::size_t total_scanned_ = 0;
};

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

std::vector<Profile> ProfilesOf(const Dataset& dataset) {
  std::vector<Profile> profiles;
  profiles.reserve(dataset.NumUsers());
  for (UserId u = 0; u < dataset.NumUsers(); ++u) {
    profiles.emplace_back(u, dataset.ActionsOf(u), 0);
  }
  return profiles;
}

/// The `n` profiles most similar to `querier`'s (ties: smaller user id),
/// the shape of a querier's stored replicas.
std::vector<const Profile*> MostSimilar(const std::vector<Profile>& profiles,
                                        UserId querier, std::size_t n) {
  std::vector<std::pair<std::uint64_t, UserId>> scored;
  for (UserId u = 0; u < profiles.size(); ++u) {
    if (u == querier) continue;
    scored.emplace_back(
        KernelPairSimilarity(profiles[querier], profiles[u]).score, u);
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<const Profile*> out;
  for (std::size_t i = 0; i < n && i < scored.size(); ++i) {
    out.push_back(&profiles[scored[i].second]);
  }
  return out;
}

/// Checks the screened scan against the oracle on every (profile, query)
/// pair, appending behind hits already in the caller's buffer.
void ExpectScoresMatch(const std::vector<const Profile*>& profiles,
                       const std::vector<TagId>& tags) {
  const QueryTags query(tags);
  std::vector<ItemScore> buffer{{7, 7}};  // a previous profile's hit
  for (const Profile* profile : profiles) {
    buffer.resize(1);
    profile->ScoreQuery(query, &buffer);
    const std::vector<ItemScore> expected = OracleScoreQuery(*profile, tags);
    ASSERT_EQ(buffer.size(), expected.size() + 1);
    EXPECT_TRUE(
        std::equal(expected.begin(), expected.end(), buffer.begin() + 1))
        << "profile " << profile->owner();
  }
  std::vector<ItemScore> scratch;
  const std::vector<ItemScore> merged =
      RankQueryScores(profiles, query, &scratch);
  EXPECT_EQ(merged, OracleMerge(profiles, tags));
  EXPECT_EQ(merged.capacity(), merged.size());
}

std::vector<std::uint8_t> Saved(const IncrementalNra& nra) {
  CheckpointWriter out;
  nra.SaveState(&out);
  return out.buffer();
}

std::vector<std::uint8_t> Saved(const OracleNra& nra) {
  CheckpointWriter out;
  nra.SaveState(&out);
  return out.buffer();
}

bool SameRanking(const std::vector<RankedItem>& a,
                 const std::vector<RankedItem>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const RankedItem& x, const RankedItem& y) {
                      return x.item == y.item && x.worst == y.worst &&
                             x.best == y.best;
                    });
}

/// Every observable of the two accumulators, compared after a step.
void ExpectSameNra(const IncrementalNra& nra, const OracleNra& oracle) {
  EXPECT_TRUE(SameRanking(nra.TopK(), oracle.TopK()));
  EXPECT_EQ(nra.Converged(), oracle.Converged());
  EXPECT_EQ(nra.total_entries_scanned(), oracle.total_entries_scanned());
  EXPECT_EQ(nra.num_lists(), oracle.num_lists());
  EXPECT_EQ(nra.num_candidates(), oracle.num_candidates());
  EXPECT_EQ(Saved(nra), Saved(oracle));
}

/// A list of distinct items from [0, universe), scores in [1, max_score],
/// sorted by score descending then item ascending; small score ranges give
/// many ties.
std::vector<ItemScore> RandomList(Rng* rng, std::size_t max_len,
                                  std::uint64_t universe,
                                  std::uint32_t max_score) {
  std::map<ItemId, std::uint32_t> unique;
  const std::size_t len = 1 + rng->NextUint64(max_len);
  for (std::size_t i = 0; i < len; ++i) {
    unique[static_cast<ItemId>(rng->NextUint64(universe))] =
        static_cast<std::uint32_t>(1 + rng->NextUint64(max_score));
  }
  std::vector<ItemScore> list(unique.begin(), unique.end());
  std::sort(list.begin(), list.end(),
            [](const ItemScore& a, const ItemScore& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  return list;
}

// ---------------------------------------------------------------------------
// Scoring and merging.
// ---------------------------------------------------------------------------

TEST(QueryScoringOracle, DeliciousLikeProfilesAndQueriesMatchTheScan) {
  const SyntheticTrace trace = test::SmallTrace(400, 11);
  const std::vector<Profile> profiles = ProfilesOf(trace.dataset());
  Rng rng(0x71756572ULL);
  int queries = 0;
  for (UserId querier = 0; querier < profiles.size(); querier += 4) {
    const QuerySpec spec =
        GenerateQueryForUser(trace.dataset(), querier, &rng);
    if (spec.tags.empty()) continue;
    ++queries;
    SCOPED_TRACE("querier " + std::to_string(querier));
    // The querier's stored replicas, then random profiles (most score
    // nothing).
    ExpectScoresMatch(MostSimilar(profiles, querier, 10), spec.tags);
    std::vector<const Profile*> random;
    for (int i = 0; i < 10; ++i) {
      random.push_back(&profiles[rng.NextUint64(profiles.size())]);
    }
    ExpectScoresMatch(random, spec.tags);
  }
  EXPECT_GT(queries, 50);
}

TEST(QueryScoringOracle, HandMadeEdgeCasesMatchTheScan) {
  constexpr TagId kMax = 0xffffffffu;
  // Item 7 carries 20 tags (more than a tag signature's 8 lanes); tags
  // 3 + 256 j alias tag 3 in the mask; tags past 2^16 and near UINT32_MAX
  // cannot be packed into the 16-bit signatures; item kInvalidItem is the
  // scan's own sentinel value.
  std::vector<std::pair<ItemId, TagId>> wide;
  for (TagId t = 0; t < 20; ++t) wide.emplace_back(7, 1 + 13 * t);
  const std::vector<Profile> profiles = [&] {
    std::vector<Profile> out;
    out.push_back(test::MakeProfile(1, wide));
    out.push_back(test::MakeProfile(
        2, {{1, 3}, {1, 259}, {2, 515}, {2, 771}, {3, 1027}, {4, 3}}));
    out.push_back(test::MakeProfile(
        3, {{5, 65536}, {5, 65539}, {6, 70000}, {9, 1u << 20}}));
    out.push_back(test::MakeProfile(
        4, {{0, kMax}, {0, kMax - 1}, {8, kMax - 255}, {kInvalidItem, kMax},
            {kInvalidItem, 3}}));
    out.push_back(test::MakeProfile(5, {{1, 3}, {7, 14}, {kInvalidItem, 3}}));
    out.push_back(test::MakeProfile(6, {}));
    return out;
  }();
  std::vector<const Profile*> all;
  for (const Profile& p : profiles) all.push_back(&p);
  const std::vector<std::vector<TagId>> queries = {
      {},
      {3},
      {3, 259},
      {771},
      {3, 515, 1027},
      {14, 27, 40, 53, 66, 79, 92, 105},
      {1, 14, 27, 40, 53, 66, 79, 92, 105, 118, 131, 144},
      {65536},
      {3, 65539, 70000, 1u << 20},
      {kMax},
      {kMax - 255, kMax - 1, kMax},
      {0, 255, 256, 511},
  };
  for (const std::vector<TagId>& tags : queries) {
    SCOPED_TRACE("query of " + std::to_string(tags.size()) + " tags");
    ExpectScoresMatch(all, tags);
    for (const Profile* p : all) ExpectScoresMatch({p}, tags);
  }
  // The aliasing tags reach the exact search and are turned away there.
  std::vector<ItemScore> hits;
  const std::vector<TagId> three{3};
  profiles[1].ScoreQuery(QueryTags(three), &hits);
  EXPECT_EQ(hits, (std::vector<ItemScore>{{1, 1}, {4, 1}}));
}

// ---------------------------------------------------------------------------
// NRA.
// ---------------------------------------------------------------------------

struct NraStream {
  std::uint64_t seed;
  int k;
  std::size_t lists;
  std::size_t max_len;
  std::uint64_t universe;
  std::uint32_t max_score;
};

/// Runs a seeded stream of AddList/Process/DrainAll/TopK/Converged on both
/// accumulators, comparing after every step; every few steps the flat one
/// is also reloaded from its own checkpoint and carries on from there.
void RunStream(const NraStream& s) {
  SCOPED_TRACE("seed " + std::to_string(s.seed) + " k " + std::to_string(s.k));
  Rng rng(s.seed);
  IncrementalNra nra(s.k);
  OracleNra oracle(s.k);
  std::size_t added = 0;
  int step = 0;
  while (added < s.lists) {
    // One cycle's arrivals: 0-4 lists, reserved as one batch.
    const std::size_t batch =
        std::min<std::size_t>(rng.NextUint64(5), s.lists - added);
    std::vector<std::vector<ItemScore>> lists;
    std::size_t entries = 0;
    for (std::size_t i = 0; i < batch; ++i) {
      lists.push_back(RandomList(&rng, s.max_len, s.universe, s.max_score));
      entries += lists.back().size();
    }
    nra.Reserve(lists.size(), entries);
    for (const auto& list : lists) {
      nra.AddList(list);
      oracle.AddList(list);
    }
    added += batch;
    ExpectSameNra(nra, oracle);
    EXPECT_EQ(nra.Process(), oracle.Process());
    ExpectSameNra(nra, oracle);
    if (++step % 3 == 0) {
      const std::vector<std::uint8_t> bytes = Saved(nra);
      CheckpointReader in(bytes.data(), bytes.size());
      nra = IncrementalNra::LoadState(&in);
      EXPECT_EQ(in.Remaining(), 0u);
      ExpectSameNra(nra, oracle);
    }
  }
  EXPECT_EQ(nra.DrainAll(), oracle.DrainAll());
  ExpectSameNra(nra, oracle);
  EXPECT_EQ(nra.Process(), oracle.Process());
  ExpectSameNra(nra, oracle);
}

TEST(NraOracle, SeededStreamsMatchAfterEveryStep) {
  const std::vector<NraStream> streams = {
      // Lists arriving over many cycles, wide universe (few collisions).
      {1, 10, 60, 40, 2000, 20},
      // The size of a serving query at its end: 94 lists, ~200 candidates.
      {2, 10, 94, 12, 220, 8},
      // Ties on score: scores in {1, 2}.
      {3, 5, 40, 25, 80, 2},
      {4, 10, 70, 50, 150, 1},
      // k above the candidate count.
      {5, 50, 6, 5, 30, 4},
      {6, 1000, 20, 10, 100, 9},
      // k = 1 and a tiny universe: every list hits the same items.
      {7, 1, 30, 8, 10, 3},
      {8, 3, 120, 20, 60, 6},
  };
  for (const NraStream& s : streams) RunStream(s);
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    Rng shape(seed);
    RunStream(NraStream{seed, 1 + static_cast<int>(shape.NextUint64(15)),
                        1 + shape.NextUint64(60), 1 + shape.NextUint64(40),
                        5 + shape.NextUint64(500),
                        1 + static_cast<std::uint32_t>(shape.NextUint64(10))});
  }
}

// ---------------------------------------------------------------------------
// Hostile NRA checkpoint sections.
// ---------------------------------------------------------------------------

/// The checkpoint section of an accumulator in mid-query: some lists partly
/// consumed, some unscanned, candidates seen in several lists.
std::vector<std::uint8_t> MidQuerySection(std::uint64_t seed) {
  Rng rng(seed);
  IncrementalNra nra(1 + static_cast<int>(rng.NextUint64(10)));
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 3; ++i) nra.AddList(RandomList(&rng, 8, 30, 5));
    nra.Process();
  }
  nra.AddList(RandomList(&rng, 8, 30, 5));
  return Saved(nra);
}

TEST(NraCheckpointHostile, CursorPastEndAndUnknownListAreRejected) {
  IncrementalNra nra(2);
  nra.AddList(std::vector<ItemScore>{{5, 3}, {6, 1}});
  nra.AddList(std::vector<ItemScore>{{6, 2}});
  nra.Process();
  const std::vector<std::uint8_t> good = Saved(nra);
  // Layout: k u32 | scanned u64 | 2 lists u64 | list 0: 2 entries u64,
  // 2 x 8 bytes, next_pos u64, last_seen u64 | list 1: ... | candidates.
  constexpr std::size_t kList0Cursor = 4 + 8 + 8 + 8 + 16;
  auto load = [](std::vector<std::uint8_t> bytes) {
    CheckpointReader in(bytes.data(), bytes.size());
    return IncrementalNra::LoadState(&in);
  };
  EXPECT_NO_THROW(load(good));

  std::vector<std::uint8_t> cursor = good;
  cursor[kList0Cursor] = 3;  // list 0 holds two entries
  EXPECT_THROW(load(cursor), CheckpointError);

  // The last u32 of the section is the last candidate's last seen-list id.
  std::vector<std::uint8_t> unknown = good;
  unknown[unknown.size() - 4] = 2;  // two lists: ids 0 and 1
  EXPECT_THROW(load(unknown), CheckpointError);
}

TEST(NraCheckpointHostile, SeededMutationsFailCleanly) {
  // Each case mangles a mid-query NRA section with 1-8 byte overwrites, a
  // truncation or a duplicated span. The flat LoadState must throw a
  // CheckpointError or restore an accumulator whose checkpoint round-trips
  // and equals the oracle's, and that keeps agreeing with the oracle when
  // both run on: no crash, other exception or sanitizer report.
  constexpr int kCases = 400;
  int rejected = 0;
  int loaded = 0;
  for (int c = 0; c < kCases; ++c) {
    Rng rng(0x6e72616d7574ULL + static_cast<std::uint64_t>(c));
    std::vector<std::uint8_t> bytes = MidQuerySection(rng.NextUint64(8));
    const std::size_t size = bytes.size();
    std::string what;
    switch (rng.NextUint64(3)) {
      case 0: {
        const std::uint64_t n = 1 + rng.NextUint64(8);
        what = "overwrite";
        for (std::uint64_t i = 0; i < n; ++i) {
          const std::size_t at = static_cast<std::size_t>(rng.NextUint64(size));
          bytes[at] ^= static_cast<std::uint8_t>(1 + rng.NextUint64(255));
          what += " @" + std::to_string(at);
        }
        break;
      }
      case 1: {
        const std::size_t keep = static_cast<std::size_t>(rng.NextUint64(size));
        bytes.resize(keep);
        what = "truncate to " + std::to_string(keep);
        break;
      }
      default: {
        const std::size_t from = static_cast<std::size_t>(rng.NextUint64(size));
        const std::size_t len = static_cast<std::size_t>(
            1 + rng.NextUint64(std::min<std::size_t>(64, size - from)));
        const std::vector<std::uint8_t> span(
            bytes.begin() + static_cast<std::ptrdiff_t>(from),
            bytes.begin() + static_cast<std::ptrdiff_t>(from + len));
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(from),
                     span.begin(), span.end());
        what = "duplicate " + std::to_string(len) + " bytes @" +
               std::to_string(from);
        break;
      }
    }
    SCOPED_TRACE("case " + std::to_string(c) + ": " + what);
    try {
      CheckpointReader in(bytes.data(), bytes.size());
      IncrementalNra nra = IncrementalNra::LoadState(&in);
      ++loaded;
      const std::vector<std::uint8_t> saved = Saved(nra);
      CheckpointReader again(saved.data(), saved.size());
      EXPECT_EQ(Saved(IncrementalNra::LoadState(&again)), saved);
      // What the flat decoder accepts, the oracle accepts identically.
      CheckpointReader in_oracle(bytes.data(), bytes.size());
      OracleNra oracle = OracleNra::LoadState(&in_oracle);
      ExpectSameNra(nra, oracle);
      EXPECT_EQ(nra.Process(), oracle.Process());
      ExpectSameNra(nra, oracle);
      EXPECT_EQ(nra.DrainAll(), oracle.DrainAll());
      ExpectSameNra(nra, oracle);
    } catch (const CheckpointError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "not a CheckpointError: " << e.what();
    }
  }
  RecordProperty("rejected", rejected);
  RecordProperty("loaded", loaded);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(loaded, 0);
}

TEST(NraCheckpointHostile, DuplicateCandidateIsRejected) {
  // The oracle silently kept the first of two candidates with one item;
  // the flat index refuses the section instead.
  IncrementalNra nra(1);
  nra.AddList(std::vector<ItemScore>{{4, 2}, {9, 1}});
  nra.DrainAll();
  std::vector<std::uint8_t> bytes = Saved(nra);
  // The two candidates (items 4 and 9) are the section's last 2 x 24 bytes:
  // item u32, worst u64, one seen id (u64 count + u32).
  const std::size_t second = bytes.size() - 24;
  bytes[second] = 4;
  CheckpointReader in(bytes.data(), bytes.size());
  EXPECT_THROW(IncrementalNra::LoadState(&in), CheckpointError);
}

}  // namespace
}  // namespace p3q
