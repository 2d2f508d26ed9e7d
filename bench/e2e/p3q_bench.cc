// End-to-end benchmark program for the P3Q simulator.
//
// One invocation runs one workload. It generates the workload's inputs (a
// fixed fixture, see kFixtureSeed), seeds the system's random streams from
// --seed, drives P3QSystem through public calls only, and times every call
// from the outside. The workload is repeated a fixed number of times
// ("reps"): --seconds divided by the workload's nominal rep cost, at least
// 2. The count depends on --seconds alone, never on how fast a rep ran, so
// code of any speed is measured with the same estimator. Each rep builds a
// fresh system from the same inputs, so set-up time is a median, and every
// rep must reproduce the same simulated outcome (the determinism digest).
// The result is one JSON object on stdout; run.py adds peak RSS, checks the
// outputs and selects the metrics (see README.md).
//
// Two clocks:
//  - set-up: trace streaming, the profile store, system construction and
//    the network initialisation calls (ideal networks + SeedNetworks for the
//    seeded workloads, BootstrapRandomViews for all);
//  - timeline: only the calls into the system during the cycles. Input
//    generation (query specs, update batches, arrival draws) and the
//    ReferenceTopK oracle stay outside it.
// Workloads whose timeline issues no queries end with a query probe: a
// fixed batch of queries answered over eager-only cycles, timed on a clock
// of its own, so every workload reports the query metrics. Set-up and cycle
// times are scaled to the host's speed (SpeedReference).
// With --trace=1 every timed call is also kept as a span and written as a
// Chrome trace to --trace-out, the engines' PhaseProfiler is attached, and
// two layer probes run on the workload's own data after the first rep.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baseline/centralized_topk.h"
#include "baseline/ideal_network.h"
#include "common/parse.h"
#include "core/p3q_system.h"
#include "core/personal_network.h"
#include "dataset/generator.h"
#include "dataset/query_gen.h"
#include "eval/metrics_eval.h"
#include "obs/profiler.h"
#include "profile/score_kernel.h"
#include "serving/arrival.h"
#include "serving/lifecycle.h"
#include "sim/metrics.h"

namespace p3q {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 when
/// empty.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The p-quantile of completion latency read from the histogram, counting
/// a latency of L >= 1 cycles as spread evenly over (L - 1, L]. A few
/// queries finishing a cycle earlier or later move it a little, not by a
/// whole cycle.
double LatencyQuantile(const QueryLatencyStats& s, double p) {
  const double target = p * static_cast<double>(s.completed);
  double below = 0;
  for (std::size_t l = 0; l < kQueryLatencyBuckets; ++l) {
    const double n = static_cast<double>(s.completion_histogram[l]);
    if (n > 0 && below + n >= target) {
      return l == 0 ? 0 : static_cast<double>(l) - 1 + (target - below) / n;
    }
    below += n;
  }
  return static_cast<double>(kQueryLatencyBuckets - 1);
}

/// One benchmark workload: a closed timeline of simulated cycles. Why each
/// exists is recorded in README.md and BENCHMARK.json.
struct Workload {
  const char* name;
  int threads;
  bool seeded;          ///< networks from ComputeIdealNetworks, else cold
  bool lazy;            ///< RunLazyCycles(1) every cycle
  bool eager;           ///< RunEagerCycles(1) every cycle
  int cycles;           ///< timeline length
  double query_rate;    ///< Poisson mean query arrivals per cycle
  int arrival_cycles;   ///< arrivals only in cycles [0, arrival_cycles)
  int update_every;     ///< ApplyUpdateBatch when cycle % update_every == 0
  /// While arrivals run: departures at cycle % 3 == 0, rejoins at == 2.
  /// When they stop, every departed user rejoins: a task stalled on an
  /// offline peer would otherwise never finish, and an abandoned query is
  /// a failed operation.
  bool churn;
  /// Queries issued at once after the timeline and answered over
  /// eager-only cycles; 0 for workloads whose timeline issues queries.
  int probe_queries;
  /// Seconds of one rep at the default population on the machine the
  /// README's results come from, while other load slowed it. Only turns
  /// --seconds into a rep count.
  double rep_seconds;
};

constexpr Workload kWorkloads[] = {
    {"converge", 4, false, true, false, 40, 0, 0, 0, false, 200, 4.0},
    {"converge-serial", 1, false, true, false, 40, 0, 0, 0, false, 200, 6.0},
    {"serve", 4, true, false, true, 72, 40, 60, 0, false, 0, 7.0},
    {"churn-update", 4, true, true, true, 48, 4, 36, 6, true, 0, 4.8},
};

constexpr int kDefaultUsers = 1500;
constexpr int kMinReps = 2;
/// The query probe stops when every probe query completed, or after this
/// many cycles (the rest count as abandoned).
constexpr int kProbeMaxCycles = 32;
/// What the users do is a fixed fixture: the tagging trace, the per-cycle
/// arrival counts, which users query with which tags, the update batches,
/// and who departs and rejoins. --seed drives the system's own random
/// streams: bootstrap views, gossip partners, eager destinations and the
/// views of rejoining users. User-side inputs drawn per seed changed the
/// work of a run by several percent and the churn workload's query
/// latencies by up to 20%, more than the bounds must catch.
constexpr std::uint64_t kFixtureSeed = 1;
constexpr std::uint64_t kSloCycles = 8;
constexpr double kDepartFraction = 0.10;
constexpr double kRejoinFraction = 0.50;

/// Host speed reference: a fixed loop of random read-modify-writes over a
/// 1 MiB table. It runs on the calling thread before set-up, before each
/// timed cycle and after the last, outside both clocks. The host these
/// results come from shares its cores with other machines, and its speed
/// drifts by 10-40% for seconds to minutes at a time; the loop slows with
/// it. Scaling each host-time measurement by kReferenceMs over the median
/// loop time around it cut the seed-to-seed spread of the timeline metrics
/// by two to four times (README.md, "Host speed").
class SpeedReference {
 public:
  SpeedReference() : table_(1 << 18) {}

  /// Runs the loop once; returns its milliseconds.
  double MeasureMs() {
    const Clock::time_point start = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL + ++runs_;
    std::uint32_t sum = 0;
    for (int i = 0; i < kIterations; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      sum += table_[x & (table_.size() - 1)]++;
    }
    sink_ = sum;
    const double ms = 1e3 * SecondsBetween(start, Clock::now());
    ms_.push_back(ms);
    return ms;
  }

  /// The factor that turns a host time measured among loop times
  /// `around_ms` into milliseconds on an idle host.
  static double Scale(std::vector<double> around_ms) {
    return kReferenceMs / Quantile(std::move(around_ms), 0.5);
  }

  /// Every loop time so far, in ms.
  const std::vector<double>& ms() const { return ms_; }

 private:
  static constexpr int kIterations = 300000;
  /// The loop's time on that host when nothing else slowed it, so scaled
  /// times read as milliseconds on an idle host.
  static constexpr double kReferenceMs = 1.0;
  std::vector<std::uint32_t> table_;
  std::uint64_t runs_ = 0;
  volatile std::uint32_t sink_ = 0;
  std::vector<double> ms_;
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int users = kDefaultUsers;
  std::string trace_out;

  int Reps() const {
    return std::max(kMinReps, static_cast<int>(std::lround(
                                  seconds / workload->rep_seconds)));
  }
};

// -- Spans --------------------------------------------------------------------

/// Host-time spans of one invocation. The timers always run — they feed
/// every metric — but span records are kept only when tracing: in memory,
/// written as one Chrome trace at exit. Parent chain: workload -> setup or
/// cycle -> call; query spans run from IssueQuery to completion.
class Spans {
 public:
  explicit Spans(bool keep) : keep_(keep), origin_(Clock::now()) {}

  bool keep() const { return keep_; }

  /// Opens a scope span; returns its id (ids start at 1, 0 = no parent).
  int Open(const char* name, int parent, std::int64_t index) {
    const int id = next_id_++;
    if (keep_) {
      spans_.push_back({name, "scope", Now(), -1, id, parent, "index", index});
    }
    return id;
  }

  void Close(int id) {
    if (!keep_) return;
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
      if (it->id == id) {
        it->end_us = Now();
        return;
      }
    }
  }

  /// Times one call into the system as a child of `parent`; returns its
  /// duration in seconds.
  template <typename Fn>
  double Call(const char* name, int parent, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    if (keep_) {
      spans_.push_back({name, "call", Us(start), Us(end), next_id_++, parent,
                        nullptr, 0});
    }
    return SecondsBetween(start, end);
  }

  /// Tags the most recent call span with the query id it returned.
  void TagLastCall(std::uint64_t query_id) {
    if (!keep_) return;
    spans_.back().arg_name = "query_id";
    spans_.back().arg = static_cast<std::int64_t>(query_id);
  }

  void QueryBegin(std::uint64_t query_id, int parent) {
    if (keep_) open_queries_[query_id] = {Now(), parent};
  }

  /// Ends the span of every open query the system no longer knows (the
  /// serving tracker forgets a query when it completes or is abandoned).
  void QueryEndUnknown(const std::vector<std::uint64_t>& known_sorted) {
    if (!keep_) return;
    for (auto it = open_queries_.begin(); it != open_queries_.end();) {
      if (std::binary_search(known_sorted.begin(), known_sorted.end(),
                             it->first)) {
        ++it;
        continue;
      }
      spans_.push_back({"query", "query", it->second.first, Now(),
                        next_id_++, it->second.second, "query_id",
                        static_cast<std::int64_t>(it->first)});
      it = open_queries_.erase(it);
    }
  }

  std::size_t size() const { return spans_.size(); }

  /// Writes the spans as Chrome trace_event JSON (loads in Perfetto).
  void WriteChrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace to " + path);
    out << "{\"traceEvents\":[";
    const char* separator = "\n";
    const auto begin_event = [&](const Span& s, const char* phase, double ts) {
      out << separator << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.cat
          << "\",\"ph\":\"" << phase << "\",\"pid\":1,\"tid\":1,\"ts\":" << ts;
      separator = ",\n";
    };
    for (const Span& s : spans_) {
      // Query spans overlap each other, so they become async begin/end
      // pairs keyed by the query id; scope and call spans nest on one track.
      if (std::string_view(s.cat) == "query") {
        begin_event(s, "b", s.start_us);
        out << ",\"id\":" << s.arg << ",\"args\":{\"span_id\":" << s.id
            << ",\"parent\":" << s.parent << "}}";
        begin_event(s, "e", s.end_us);
        out << ",\"id\":" << s.arg << "}";
        continue;
      }
      begin_event(s, "X", s.start_us);
      out << ",\"dur\":" << std::max(0.0, s.end_us - s.start_us)
          << ",\"args\":{\"span_id\":" << s.id << ",\"parent\":" << s.parent;
      if (s.arg_name != nullptr) out << ",\"" << s.arg_name << "\":" << s.arg;
      out << "}}";
    }
    out << "\n]}\n";
    out.flush();
    if (!out) throw std::runtime_error("failed writing trace to " + path);
  }

 private:
  struct Span {
    const char* name;
    const char* cat;
    double start_us;
    double end_us;
    int id;
    int parent;
    const char* arg_name;  ///< null: no argument
    std::int64_t arg;
  };

  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  double Now() const { return Us(Clock::now()); }

  bool keep_;
  Clock::time_point origin_;
  int next_id_ = 1;
  std::vector<Span> spans_;
  /// query id -> (start us, parent span)
  std::map<std::uint64_t, std::pair<double, int>> open_queries_;
};

// -- One rep ------------------------------------------------------------------

/// Everything one rep measures. BuildMetrics reduces set-up and per-rep
/// totals to their median over reps and cycle times to their per-cycle
/// minimum; per-call latencies of the layers are pooled over reps so their
/// high percentiles have enough samples. setup_s and the cycle times are
/// scaled by the speed reference; the per-layer call times are not.
struct RepResult {
  // Set-up clock.
  double setup_s = 0;  ///< scaled
  double trace_stream_s = 0;
  double store_build_s = 0;
  double system_build_s = 0;
  double ideal_s = 0;  ///< seeded workloads only
  double seed_s = 0;   ///< seeded workloads only
  double bootstrap_s = 0;
  // Timeline clock.
  double user_cycles = 0;  ///< sum over timeline cycles of online users
  double lazy_call_s = 0;  ///< summed RunLazyCycles time
  std::vector<double> cycle_ms, probe_cycle_ms;  ///< scaled
  std::vector<double> lazy_ms, eager_ms, issue_us, update_ms, liveness_ms;
  double track_poll_s = 0;
  // Simulated outcome (identical across reps).
  QueryLatencyStats latency;
  Metrics traffic;  ///< at the end of the timeline
  std::uint64_t digest = 0;
  // Traced runs only.
  std::map<std::string, PhaseBreakdown> phases;
};

/// Quantities computed once per invocation, on the first rep, outside both
/// clocks. Later reps reuse the queries' centralized references.
struct Once {
  std::vector<std::vector<ItemId>> references;  ///< in issue order
  double oracle_s = 0;  ///< ReferenceTopK
  double success_ratio = 0;
  double oracle_ideal_s = 0;  ///< ideal networks computed for the oracle
  SystemMemoryStats memory;
  double kernel_pairs_per_s = 0;  ///< traced runs only
  double consider_ns_p50 = 0;     ///< traced runs only
};

/// FNV-1a over 64-bit words: the determinism digest.
class Digest {
 public:
  void Add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Per-type traffic, every user's final personal network (members, scores,
/// replica placement), and the query latency histograms.
std::uint64_t OutcomeDigest(const P3QSystem& system, const Metrics& traffic,
                            const QueryLatencyStats& latency) {
  Digest d;
  for (int t = 0; t < static_cast<int>(MessageType::kCount); ++t) {
    d.Add(traffic.Of(static_cast<MessageType>(t)).messages);
    d.Add(traffic.Of(static_cast<MessageType>(t)).bytes);
  }
  for (UserId u = 0; u < static_cast<UserId>(system.NumUsers()); ++u) {
    const auto& entries = system.node(u).network().entries();
    d.Add(entries.size());
    for (const NetworkEntry& e : entries) {
      d.Add(e.user);
      d.Add(e.score);
      d.Add(e.HasStoredProfile() ? 1 : 0);
    }
  }
  d.Add(latency.issued);
  d.Add(latency.completed);
  d.Add(latency.completed_within_slo);
  d.Add(latency.first_results);
  d.Add(latency.abandoned);
  for (std::uint64_t c : latency.completion_histogram) d.Add(c);
  for (std::uint64_t c : latency.first_result_histogram) d.Add(c);
  return d.value();
}

/// Draws one query from a random online user's original actions, like the
/// scenario runner's serving workload; nullopt when no attempt yields tags.
std::optional<QuerySpec> DrawQuery(const P3QSystem& system,
                                   const std::vector<UserId>& online,
                                   Rng* rng) {
  if (online.empty()) return std::nullopt;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const UserId u = online[rng->NextUint64(online.size())];
    QuerySpec spec = GenerateQueryForUser(
        system.profile_store().OriginalActionsOf(u), u, rng);
    if (!spec.tags.empty()) return spec;
  }
  return std::nullopt;
}

/// `fraction` of `users` (rounded down, as P3QSystem's *RandomFraction
/// calls do), drawn without replacement.
std::vector<UserId> DrawFraction(const std::vector<UserId>& users,
                                 double fraction, Rng* rng) {
  return rng->SampleWithoutReplacement(
      users, static_cast<std::size_t>(static_cast<double>(users.size()) *
                                      fraction));
}

/// Layer probe: the batched similarity kernel on 64-candidate batches drawn
/// from the workload's own profiles. Returns pairs scored per second.
double ProbeKernel(const ProfileStore& store, std::uint64_t seed) {
  constexpr std::size_t kBatch = 64;
  constexpr int kBatches = 4096;
  Rng rng(seed ^ 0x6b65726e656cULL);
  const std::size_t n = store.NumUsers();
  std::vector<const Profile*> candidates(kBatch);
  std::vector<PairSimilarity> out(kBatch);
  double seconds = 0;
  for (int b = 0; b < kBatches; ++b) {
    const Profile& base = *store.Get(static_cast<UserId>(rng.NextUint64(n)));
    for (const Profile*& c : candidates) {
      c = store.Get(static_cast<UserId>(rng.NextUint64(n))).get();
    }
    const Clock::time_point start = Clock::now();
    KernelPairSimilarityBatch(base, candidates.data(), kBatch, out.data());
    seconds += SecondsBetween(start, Clock::now());
  }
  return static_cast<double>(kBatch) * kBatches / seconds;
}

/// Layer probe: PersonalNetwork::Consider on offers built from the ideal
/// lists, replayed in a shuffled order into fresh networks. Returns the
/// median over networks of the mean ns per Consider call.
double ProbeConsider(const P3QSystem& system, const IdealNetworks& ideal,
                     std::uint64_t seed) {
  constexpr int kNetworks = 256;
  Rng rng(seed ^ 0x636f6e73696465ULL);
  const P3QConfig& config = system.config();
  std::vector<double> per_call_ns;
  for (int i = 0; i < kNetworks; ++i) {
    const UserId u = static_cast<UserId>(rng.NextUint64(system.NumUsers()));
    std::vector<std::pair<UserId, std::uint64_t>> offers = ideal[u];
    if (offers.empty()) continue;
    rng.Shuffle(&offers);
    std::vector<ProfilePtr> snapshots;
    snapshots.reserve(offers.size());
    for (const auto& offer : offers) {
      snapshots.push_back(system.profile_store().Get(offer.first));
    }
    PersonalNetwork network(u, config.network_size, config.stored_profiles);
    const Clock::time_point start = Clock::now();
    for (std::size_t k = 0; k < offers.size(); ++k) {
      network.Consider(offers[k].first, offers[k].second,
                       DigestInfo{offers[k].first, snapshots[k]},
                       snapshots[k]);
    }
    per_call_ns.push_back(SecondsBetween(start, Clock::now()) * 1e9 /
                          static_cast<double>(offers.size()));
  }
  return Quantile(std::move(per_call_ns), 0.5);
}

RepResult RunRep(const Workload& w, const Options& opt, Spans* spans,
                 SpeedReference* speed, int workload_span, int rep,
                 Once* once) {
  const bool first = rep == 0;
  RepResult r;
  P3QConfig config;
  config.network_size = std::max(10, opt.users / 10);
  config.stored_profiles = std::min(10, config.network_size);

  // Set-up. ref_ms[0] is measured before it, ref_ms[i + 1] before cycle
  // i, and the last after the last cycle.
  std::vector<double> ref_ms = {speed->MeasureMs()};
  const Clock::time_point setup_start = Clock::now();
  const int setup_span = spans->Open("setup", workload_span, rep);
  std::optional<SyntheticTraceStream> stream;
  r.trace_stream_s += spans->Call("dataset.SyntheticTraceStream", setup_span,
                                  [&] {
                                    stream.emplace(
                                        SyntheticConfig::DeliciousLike(
                                            opt.users),
                                        kFixtureSeed);
                                  });
  ProfileStore store;
  // Queries and update batches keep drawing against the original trace.
  store.RetainOriginals(true);
  while (!stream->Done()) {
    const UserId u = stream->next_user();
    std::vector<ActionKey> actions;
    r.trace_stream_s +=
        spans->Call("dataset.NextUserActions", setup_span,
                    [&] { actions = stream->NextUserActions(); });
    r.store_build_s += spans->Call("profile.AddUser", setup_span, [&] {
      store.AddUser(u, std::move(actions), config.digest_bits);
    });
  }
  PhaseProfiler profiler;  // outlives the system that points at it
  std::unique_ptr<P3QSystem> system;
  r.system_build_s = spans->Call("core.P3QSystem", setup_span, [&] {
    system = std::make_unique<P3QSystem>(std::move(store), config,
                                         std::vector<int>{}, opt.seed);
  });
  system->SetThreads(w.threads);
  if (opt.trace) system->SetProfiler(&profiler);
  IdealNetworks ideal;
  if (w.seeded) {
    r.ideal_s = spans->Call("baseline.ComputeIdealNetworks", setup_span, [&] {
      ideal = ComputeIdealNetworks(system->profile_store(),
                                   config.network_size, config.similarity);
    });
    r.seed_s = spans->Call("core.SeedNetworks", setup_span,
                           [&] { system->SeedNetworks(ideal); });
  }
  r.bootstrap_s = spans->Call("core.BootstrapRandomViews", setup_span,
                              [&] { system->BootstrapRandomViews(); });
  spans->Close(setup_span);
  const double setup_s = SecondsBetween(setup_start, Clock::now());

  // Timeline, then the query probe. The user-side draws come from the
  // fixture stream.
  Rng workload_rng(kFixtureSeed * 0x9e3779b97f4a7c15ULL +
                   0x2545f4914f6cdd1dULL);
  std::optional<ArrivalProcess> arrivals;
  if (w.query_rate > 0) {
    ArrivalSpec spec;
    spec.kind = ArrivalKind::kPoisson;
    spec.rate = w.query_rate;
    spec.slo_cycles = kSloCycles;
    arrivals.emplace(spec, kFixtureSeed);
  }
  ServingTracker tracker(kSloCycles, /*recall_target=*/1.0);
  const ActionsView originals = [&system](UserId u) {
    return system->profile_store().OriginalActionsOf(u);
  };
  // The timeline's outcome, read before the probe's eager cycles touch it.
  const auto end_timeline = [&] {
    r.traffic = system->metrics().Snapshot();
    if (!first) return;
    // The success ratio compares against ideal networks of the final
    // profiles; only the update workload changes them after set-up.
    if (!w.seeded || w.update_every > 0) {
      const Clock::time_point start = Clock::now();
      ideal = ComputeIdealNetworks(system->profile_store(),
                                   config.network_size, config.similarity);
      once->oracle_ideal_s = SecondsBetween(start, Clock::now());
    }
    once->success_ratio = AverageSuccessRatio(*system, ideal);
    once->memory = system->MemoryStats();
  };
  std::size_t queries_issued = 0;
  const int last_cycle =
      w.cycles + (w.probe_queries > 0 ? kProbeMaxCycles : 0);
  for (int cycle = 0; cycle < last_cycle; ++cycle) {
    const bool probe = cycle >= w.cycles;
    if (probe && cycle > w.cycles && tracker.open() == 0) break;
    if (cycle == w.cycles) end_timeline();
    ref_ms.push_back(speed->MeasureMs());
    const int cycle_span =
        spans->Open(probe ? "probe_cycle" : "cycle", workload_span, cycle);
    double cycle_s = 0;
    const auto timed = [&](const char* name, auto&& fn) {
      const double s = spans->Call(name, cycle_span, fn);
      cycle_s += s;
      return s;
    };
    const bool arriving = cycle < w.arrival_cycles;
    if (w.churn && arriving && cycle % 3 == 0) {
      const std::vector<UserId> leaving = DrawFraction(
          system->network().OnlineUsers(), kDepartFraction, &workload_rng);
      r.liveness_ms.push_back(1e3 * timed("core.FailUser", [&] {
        for (UserId u : leaving) system->FailUser(u);
      }));
    }
    const bool all_back = cycle == w.arrival_cycles;
    if (w.churn && (all_back || (arriving && cycle % 3 == 2))) {
      const std::vector<UserId> back =
          DrawFraction(system->network().OfflineUsers(),
                       all_back ? 1.0 : kRejoinFraction, &workload_rng);
      r.liveness_ms.push_back(1e3 * timed("core.RejoinUser", [&] {
        for (UserId u : back) system->RejoinUser(u);
      }));
    }
    if (w.update_every > 0 && !probe && cycle % w.update_every == 0) {
      const UpdateBatch batch =
          stream->MakeUpdateBatch(UpdateConfig{}, &workload_rng, originals);
      r.update_ms.push_back(1e3 * timed("core.ApplyUpdateBatch", [&] {
        system->ApplyUpdateBatch(batch);
      }));
    }
    int n = 0;
    if (cycle == w.cycles) {
      n = w.probe_queries;
    } else if (arrivals.has_value() && arriving) {
      n = arrivals->ArrivalsAt(static_cast<std::uint64_t>(cycle));
    }
    const std::vector<UserId> online =
        n > 0 ? system->network().OnlineUsers() : std::vector<UserId>{};
    for (int i = 0; i < n; ++i) {
      const std::optional<QuerySpec> spec =
          DrawQuery(*system, online, &workload_rng);
      if (!spec.has_value()) continue;
      if (first) {
        const Clock::time_point oracle_start = Clock::now();
        once->references.push_back(
            ReferenceTopK(*system, *spec, config.top_k));
        once->oracle_s += SecondsBetween(oracle_start, Clock::now());
      }
      std::vector<ItemId> reference = once->references.at(queries_issued++);
      std::uint64_t id = 0;
      r.issue_us.push_back(1e6 * timed("core.IssueQuery", [&] {
        id = system->IssueQuery(*spec);
      }));
      spans->TagLastCall(id);
      spans->QueryBegin(id, workload_span);
      r.track_poll_s += timed("serving.Track", [&] {
        tracker.Track(system.get(), id, static_cast<std::uint64_t>(cycle),
                      std::move(reference), &r.latency);
      });
    }
    if (!probe) {
      r.user_cycles += static_cast<double>(system->network().NumOnline());
    }
    if (w.lazy && !probe) {
      const double s =
          timed("core.RunLazyCycles", [&] { system->RunLazyCycles(1); });
      r.lazy_call_s += s;
      r.lazy_ms.push_back(1e3 * s);
    }
    if (w.eager || probe) {
      r.eager_ms.push_back(1e3 * timed("core.RunEagerCycles", [&] {
        system->RunEagerCycles(1);
      }));
    }
    if (tracker.open() > 0) {
      r.track_poll_s += timed("serving.Poll", [&] {
        tracker.Poll(system.get(), static_cast<std::uint64_t>(cycle) + 1,
                     &r.latency);
      });
    }
    if (spans->keep()) spans->QueryEndUnknown(system->AllQueryIds());
    spans->Close(cycle_span);
    (probe ? r.probe_cycle_ms : r.cycle_ms).push_back(1e3 * cycle_s);
  }
  ref_ms.push_back(speed->MeasureMs());
  r.setup_s = setup_s * SpeedReference::Scale({ref_ms[0], ref_ms[1]});
  const std::size_t timeline = r.cycle_ms.size();
  for (std::size_t i = 0; i < ref_ms.size() - 2; ++i) {
    double& ms =
        i < timeline ? r.cycle_ms[i] : r.probe_cycle_ms[i - timeline];
    ms *= SpeedReference::Scale({ref_ms[i], ref_ms[i + 1], ref_ms[i + 2]});
  }
  if (w.probe_queries == 0) end_timeline();
  // Queries still open when the run ends count as abandoned.
  r.track_poll_s += spans->Call("serving.Abandon", workload_span, [&] {
    tracker.Abandon(system.get(), static_cast<std::uint64_t>(last_cycle),
                    &r.latency);
  });
  spans->QueryEndUnknown({});
  r.digest = OutcomeDigest(*system, system->metrics().Snapshot(), r.latency);
  if (opt.trace) r.phases = profiler.Snapshot();

  if (first && opt.trace) {
    once->kernel_pairs_per_s = ProbeKernel(system->profile_store(), opt.seed);
    once->consider_ns_p50 = ProbeConsider(*system, ideal, opt.seed);
  }
  return r;
}

// -- Reduction and output -----------------------------------------------------

/// Median over reps of one per-rep quantity.
template <typename Fn>
double MedianOverReps(const std::vector<RepResult>& reps, Fn&& fn) {
  std::vector<double> v;
  v.reserve(reps.size());
  for (const RepResult& r : reps) v.push_back(fn(r));
  return Quantile(std::move(v), 0.5);
}

/// One distribution pooled over reps.
std::vector<double> Pooled(const std::vector<RepResult>& reps,
                           std::vector<double> RepResult::*field) {
  std::vector<double> v;
  for (const RepResult& r : reps) {
    v.insert(v.end(), (r.*field).begin(), (r.*field).end());
  }
  return v;
}

/// Each cycle's scaled host time as its minimum over the reps. Every rep
/// does the same work cycle by cycle (the digest check holds them to it),
/// so a cycle's fastest rep is its cost with the least interference from
/// other load on the host that the speed reference did not see. The rep
/// count is fixed, so the estimator is the same whatever the speed of the
/// code under test.
std::vector<double> PerCycleMinimum(const std::vector<RepResult>& reps,
                                    std::vector<double> RepResult::*field) {
  std::vector<double> best = reps.front().*field;
  for (const RepResult& r : reps) {
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], (r.*field)[i]);
    }
  }
  return best;
}

double SumMs(const std::vector<double>& ms) {
  double s = 0;
  for (double v : ms) s += v / 1e3;
  return s;
}

/// Ordered name -> (value, unit) map, printed as the "metrics" object.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.emplace_back(name, std::make_pair(value, unit));
  }

  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].second.first);
      out += (i == 0 ? "" : ", ");
      out += "\"" + metrics_[i].first + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[i].second.second + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, const char*>>>
      metrics_;
};

void AddPhaseMetrics(MetricSet* m, const std::string& prefix,
                     const std::vector<RepResult>& reps,
                     const std::string& label) {
  const auto phase = [&](double PhaseBreakdown::*field) {
    return MedianOverReps(reps, [&](const RepResult& r) {
      double total = 0;
      for (const auto& [engine, b] : r.phases) {
        if (label.empty() || engine == label) total += b.*field;
      }
      return total;
    });
  };
  m->Add(prefix + "plan_s", phase(&PhaseBreakdown::plan_seconds), "s");
  m->Add(prefix + "barrier_s", phase(&PhaseBreakdown::barrier_seconds), "s");
  m->Add(prefix + "drain_s", phase(&PhaseBreakdown::drain_seconds), "s");
  m->Add(prefix + "end_cycle_s", phase(&PhaseBreakdown::end_cycle_seconds),
         "s");
  m->Add(prefix + "shard_imbalance_mean",
         MedianOverReps(reps,
                        [&](const RepResult& r) {
                          PhaseBreakdown merged;
                          for (const auto& [engine, b] : r.phases) {
                            if (label.empty() || engine == label) {
                              merged.MergeFrom(b);
                            }
                          }
                          return merged.MeanImbalance();
                        }),
         "ratio");
}

MetricSet BuildMetrics(const Workload& w, const Options& opt,
                       const std::vector<RepResult>& reps, const Once& once,
                       const SpeedReference& speed) {
  const RepResult& r0 = reps.front();
  MetricSet m;
  // End-to-end.
  m.Add("setup_s", MedianOverReps(reps, [](const RepResult& r) {
          return r.setup_s;
        }),
        "s");
  const std::vector<double> best_cycle_ms =
      PerCycleMinimum(reps, &RepResult::cycle_ms);
  const double best_timeline_s = SumMs(best_cycle_ms);
  m.Add("user_cycles_per_s", r0.user_cycles / best_timeline_s,
        "user-cycles/s");
  m.Add("cycle_ms_p50", Quantile(best_cycle_ms, 0.50), "ms");
  m.Add("cycle_ms_p75", Quantile(best_cycle_ms, 0.75), "ms");
  // Queries are answered on the timeline, or in the probe when the
  // timeline issues none.
  const double query_s = w.probe_queries > 0
                             ? SumMs(PerCycleMinimum(
                                   reps, &RepResult::probe_cycle_ms))
                             : best_timeline_s;
  m.Add("queries_per_s", static_cast<double>(r0.latency.completed) / query_s,
        "queries/s");
  m.Add("query_latency_p50_cycles", LatencyQuantile(r0.latency, 0.50),
        "cycles");
  // p90, not p95: churn-update completes 144 queries, so p90 is the
  // highest percentile with ten of them beyond it.
  m.Add("query_latency_p90_cycles", LatencyQuantile(r0.latency, 0.90),
        "cycles");
  m.Add("slo_fraction",
        static_cast<double>(r0.latency.completed_within_slo) /
            static_cast<double>(r0.latency.issued),
        "ratio");
  m.Add("success_ratio", once.success_ratio, "ratio");
  m.Add("messages_per_user_cycle",
        static_cast<double>(r0.traffic.TotalMessages()) / r0.user_cycles,
        "msgs/user-cycle");
  m.Add("bytes_per_user_cycle",
        static_cast<double>(r0.traffic.TotalBytes()) / r0.user_cycles,
        "B/user-cycle");

  // Per-layer timers around public calls (every run).
  const auto median = [&](double RepResult::*field) {
    return MedianOverReps(reps, [&](const RepResult& r) { return r.*field; });
  };
  m.Add("dataset.trace_stream_s", median(&RepResult::trace_stream_s), "s");
  m.Add("profile.store_build_s", median(&RepResult::store_build_s), "s");
  m.Add("core.system_build_s", median(&RepResult::system_build_s), "s");
  m.Add("baseline.ideal_networks_s",
        w.seeded ? median(&RepResult::ideal_s) : once.oracle_ideal_s, "s");
  if (w.seeded) {
    m.Add("core.seed_networks_s", median(&RepResult::seed_s), "s");
  }
  m.Add("core.bootstrap_s", median(&RepResult::bootstrap_s), "s");
  if (w.lazy) {
    const std::vector<double> v = Pooled(reps, &RepResult::lazy_ms);
    m.Add("core.lazy_cycle_ms.p50", Quantile(v, 0.50), "ms");
    m.Add("core.lazy_cycle_ms.p75", Quantile(v, 0.75), "ms");
  }
  const std::vector<double> eager = Pooled(reps, &RepResult::eager_ms);
  m.Add("core.eager_cycle_ms.p50", Quantile(eager, 0.50), "ms");
  m.Add("core.eager_cycle_ms.p75", Quantile(eager, 0.75), "ms");
  const std::vector<double> issue = Pooled(reps, &RepResult::issue_us);
  m.Add("core.issue_query_us.p50", Quantile(issue, 0.50), "us");
  m.Add("core.issue_query_us.p99", Quantile(issue, 0.99), "us");
  m.Add("serving.track_poll_ms", 1e3 * median(&RepResult::track_poll_s), "ms");
  m.Add("oracle.reference_topk_s", once.oracle_s, "s");
  m.Add("host.reference_ms", Quantile(speed.ms(), 0.5), "ms");
  if (w.update_every > 0) {
    m.Add("core.apply_update_ms.p50",
          Quantile(Pooled(reps, &RepResult::update_ms), 0.50), "ms");
  }
  if (w.churn) {
    m.Add("core.liveness_ms.p50",
          Quantile(Pooled(reps, &RepResult::liveness_ms), 0.50), "ms");
  }
  for (int t = 0; t < static_cast<int>(MessageType::kCount); ++t) {
    const MessageStats& s = r0.traffic.Of(static_cast<MessageType>(t));
    const std::string type = MessageTypeName(static_cast<MessageType>(t));
    m.Add("count.messages." + type, static_cast<double>(s.messages), "count");
    m.Add("count.bytes." + type, static_cast<double>(s.bytes), "B");
  }
  m.Add("mem.arena_used_mb",
        static_cast<double>(once.memory.store.arena.used_bytes) / (1 << 20),
        "MB");
  m.Add("mem.pair_cache_entries",
        static_cast<double>(once.memory.pair_cache_entries), "count");

  // Engine phases and layer probes (traced runs only).
  if (opt.trace) {
    AddPhaseMetrics(&m, "sim.", reps, "");
    if (w.lazy) AddPhaseMetrics(&m, "sim.lazy.", reps, "lazy");
    AddPhaseMetrics(&m, "sim.eager.", reps, "eager");
    m.Add("profile.kernel_pairs_per_s", once.kernel_pairs_per_s, "pairs/s");
    m.Add("core.consider_ns.p50", once.consider_ns_p50, "ns");
  }
  return m;
}

// -- Command line -------------------------------------------------------------

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "p3q_bench: %s\n"
               "usage: p3q_bench --workload=NAME [--seed=N] [--seconds=S] "
               "[--trace=0|1]\n"
               "                 [--users=N] [--trace-out=PATH]\n"
               "workloads: converge, converge-serial, serve, churn-update\n",
               problem.c_str());
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Usage("expected --name=value, got '" + arg + "'");
    }
    const std::string name = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    bool ok = true;
    if (name == "workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) opt.workload = &w;
      }
      ok = opt.workload != nullptr;
    } else if (name == "seed") {
      ok = ParseStrictUint64(value, &opt.seed);
    } else if (name == "seconds") {
      ok = ParseStrictDouble(value, &opt.seconds) && opt.seconds >= 0;
    } else if (name == "trace") {
      ok = value == "0" || value == "1";
      opt.trace = value == "1";
    } else if (name == "users") {
      ok = ParseStrictInt(value, &opt.users) && opt.users >= 20;
    } else if (name == "trace-out") {
      opt.trace_out = value;
    } else {
      Usage("unknown flag --" + name);
    }
    if (!ok) Usage("bad value for --" + name + ": '" + value + "'");
  }
  if (opt.workload == nullptr) Usage("--workload is required");
  return opt;
}

int Run(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  const Workload& w = *opt.workload;
  Spans spans(opt.trace);
  const int workload_span = spans.Open(w.name, 0, 0);

  std::vector<RepResult> reps;
  Once once;
  SpeedReference speed;
  for (int rep = 0; rep < opt.Reps(); ++rep) {
    reps.push_back(RunRep(w, opt, &spans, &speed, workload_span, rep, &once));
  }
  spans.Close(workload_span);
  if (opt.trace && !opt.trace_out.empty()) spans.WriteChrome(opt.trace_out);

  const MetricSet metrics = BuildMetrics(w, opt, reps, once, speed);
  const QueryLatencyStats& q = reps.front().latency;
  std::string digests;
  std::uint64_t operations = 0;
  std::uint64_t abandoned = 0;
  double lazy_call_s = 0;
  double lazy_phase_s = 0;
  for (const RepResult& r : reps) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s\"%016llx\"", digests.empty() ? "" : ", ",
                  static_cast<unsigned long long>(r.digest));
    digests += buf;
    operations += r.cycle_ms.size() + r.probe_cycle_ms.size() +
                  r.latency.issued;
    abandoned += r.latency.abandoned;
    lazy_call_s += r.lazy_call_s;
    const auto lazy = r.phases.find("lazy");
    if (lazy != r.phases.end()) lazy_phase_s += lazy->second.TotalSeconds();
  }
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"users\": %d, \"threads\": %d, "
      "\"traced\": %s, \"reps\": %zu, \"spans\": %zu, \"digests\": [%s], "
      "\"queries\": {\"issued\": %llu, \"completed\": %llu, "
      "\"abandoned\": %llu}, \"lazy_call_s\": %.9f, \"lazy_phase_s\": %.9f, "
      "\"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
      w.name, static_cast<unsigned long long>(opt.seed), opt.users, w.threads,
      opt.trace ? "true" : "false", reps.size(), spans.size(), digests.c_str(),
      static_cast<unsigned long long>(q.issued),
      static_cast<unsigned long long>(q.completed),
      static_cast<unsigned long long>(q.abandoned), lazy_call_s, lazy_phase_s,
      static_cast<unsigned long long>(operations),
      static_cast<unsigned long long>(abandoned), metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace p3q

int main(int argc, char** argv) {
  try {
    return p3q::Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p3q_bench: %s\n", e.what());
    return 1;
  }
}
