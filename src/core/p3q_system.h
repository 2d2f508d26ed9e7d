// P3QSystem — the public entry point: a whole simulated P3Q deployment.
//
// Owns the population (profile store + one P3QNode per user), the simulated
// network with its traffic accounting, the worker pool, the two cycle
// engines that borrow it, and the protocol instances. Typical use:
//
//   auto trace = GenerateSyntheticTrace(SyntheticConfig::DeliciousLike(1000), 1);
//   P3QConfig config;
//   config.network_size = 100;
//   P3QSystem system(trace.dataset(), config, /*per_user_storage=*/{}, seed);
//   system.BootstrapRandomViews();
//   system.RunLazyCycles(200);                        // build personal networks
//   auto qid = system.IssueQuery(GenerateQueryForUser(trace.dataset(), 42, &rng));
//   system.RunEagerCycles(10);                        // gossip the query
//   const ActiveQuery& q = system.query(qid);         // per-cycle top-k history
#ifndef P3Q_CORE_P3Q_SYSTEM_H_
#define P3Q_CORE_P3Q_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/p3q_node.h"
#include "core/query.h"
#include "dataset/dataset.h"
#include "dataset/update_batch.h"
#include "profile/profile_store.h"
#include "profile/score_kernel.h"
#include "profile/similarity.h"
#include "sim/delivery.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "sim/worker_pool.h"

namespace p3q {

class LazyProtocol;
class EagerProtocol;
class Tracer;         // obs/trace.h
class PhaseProfiler;  // obs/profiler.h
class CheckpointWriter;  // sim/checkpoint.h
class CheckpointReader;

/// Memory rollup of one deployment (profile storage, probe memos and
/// personal networks), surfaced in the runner's --timing report. All
/// figures are current values except the peaks noted in
/// ProfileStoreMemoryStats.
struct SystemMemoryStats {
  ProfileStoreMemoryStats store;
  /// Table bytes of every node's probe memo (P3QNode::probed_versions).
  std::size_t probe_memo_bytes = 0;
  /// Entries of every probe memo: with probe_memo_bytes, the memos' load.
  std::size_t probe_memo_entries = 0;
  /// Capacity bytes of every personal network's entry slots, rank keys,
  /// replica array, free lists and index (PersonalNetwork::MemoryBytes).
  std::size_t personal_network_bytes = 0;
  /// The indexes' share of personal_network_bytes
  /// (PersonalNetwork::IndexBytes).
  std::size_t network_index_bytes = 0;
  /// Capacity bytes of every random view (RandomView::MemoryBytes).
  std::size_t random_view_bytes = 0;
  /// Largest number of delivery messages queued after one plan barrier,
  /// summed over the lazy and the eager engine (DeliveryStats::
  /// max_in_flight of each): a bound on the messages, and the snapshots
  /// they carry, held at once.
  std::uint64_t peak_in_flight_messages = 0;
  /// Heap bytes the engines' message arenas (sim/delivery.h) reserved at
  /// most, read after each plan phase, summed over the lazy and the eager
  /// engine: the payloads of every message in flight then, plus the
  /// arenas' slack.
  std::size_t peak_message_arena_bytes = 0;
  /// The bytes they hold now, at a barrier: the arenas of the send cycles
  /// that still have a message in flight (0 under zero latency).
  std::size_t message_arena_bytes = 0;
  /// Always 0: pairs are scored by the kernel directly, with no memo cache.
  /// Kept only because the end-to-end benchmark (bench/e2e/p3q_bench.cc)
  /// still reports it as mem.pair_cache_entries; the next change to that
  /// benchmark drops both.
  std::size_t pair_cache_entries = 0;
};

/// A complete simulated P3Q deployment.
class P3QSystem {
 public:
  /// dataset: the tagging trace; config: protocol parameters;
  /// per_user_storage: every user's c (empty => config.stored_profiles for
  /// all); seed: master seed for all randomness.
  P3QSystem(const Dataset& dataset, const P3QConfig& config,
            std::vector<int> per_user_storage, std::uint64_t seed);

  /// Takes ownership of an already-built profile store — the streaming
  /// setup path: trace generation feeds profiles straight into the store
  /// without materializing a Dataset. Behaviour is identical to building
  /// the store from the equivalent dataset.
  P3QSystem(ProfileStore&& store, const P3QConfig& config,
            std::vector<int> per_user_storage, std::uint64_t seed);

  ~P3QSystem();

  P3QSystem(const P3QSystem&) = delete;
  P3QSystem& operator=(const P3QSystem&) = delete;

  std::size_t NumUsers() const { return nodes_.size(); }
  const P3QConfig& config() const { return config_; }
  Network& network() { return network_; }
  const Network& network() const { return network_; }
  ProfileStore& profile_store() { return store_; }
  const ProfileStore& profile_store() const { return store_; }
  P3QNode& node(UserId user) { return *nodes_[user]; }
  const P3QNode& node(UserId user) const { return *nodes_[user]; }
  Rng& rng() { return rng_; }
  Metrics& metrics() { return network_.metrics(); }

  /// Threads of the system's one worker pool, which both engines and the
  /// eager mode's end of cycle run on (sim/worker_pool.h). Results are
  /// byte-identical for every value; the initial value comes from the
  /// P3Q_THREADS environment variable (default 1).
  void SetThreads(int threads) { pool_.SetThreads(threads); }
  int threads() const { return pool_.threads(); }

  /// Installs the latency model governing message delivery on both engines
  /// (sim/engine.h). The default, zero latency, commits every planned effect
  /// at its own cycle's barrier, byte-identical to the synchronous engine;
  /// non-zero models put planned effects in flight for whole cycles.
  /// Results stay byte-identical across thread counts for every model.
  /// Throws std::invalid_argument when the spec fails Validate().
  void SetLatency(const LatencySpec& spec);
  const LatencySpec& latency() const { return latency_spec_; }

  /// Attaches a deterministic event tracer (obs/trace.h) to both engines,
  /// their delivery queues, and the protocols. Traces are observation-only:
  /// they never perturb a run's results. Null detaches; the tracer must
  /// outlive the system's remaining cycles.
  void SetTracer(Tracer* tracer);
  Tracer* tracer() const { return tracer_; }

  /// Attaches a wall-clock phase profiler (obs/profiler.h): the lazy engine
  /// accumulates under "lazy", the eager engine under "eager". Null
  /// detaches. Like tracing, profiling is observation-only.
  void SetProfiler(PhaseProfiler* profiler);

  /// Merged delivery counters of both engines; stale_dropped additionally
  /// folds in the eager protocol's superseded-gossip drops and the
  /// queriers' late-partial-result drops.
  DeliveryStats DeliveryStatsTotal() const;

  /// Messages currently in flight across both engines.
  std::size_t MessagesInFlight() const;

  /// Memory footprint rollup: the profile store's arena/pool/pending
  /// counters.
  SystemMemoryStats MemoryStats() const;

  // -- Initialization ------------------------------------------------------

  /// Fills every node's random view with r uniformly random peers (their
  /// current digests); the paper's bootstrap via peer sampling.
  void BootstrapRandomViews();

  /// Installs converged personal networks directly: per user, her ideal
  /// neighbours as (user, score) sorted by descending score; the top-c get
  /// fresh profile replicas. Used by the query-processing experiments,
  /// which start from built networks (the paper converges the lazy mode
  /// first; see baseline/ideal_network.h for computing the lists).
  void SeedNetworks(
      const std::vector<std::vector<std::pair<UserId, std::uint64_t>>>& ideal);

  /// Seeds each user's personal network from an *explicit* social graph
  /// (friends[u] = u's declared friends). The paper's Section 4: "equipping
  /// each P3Q user with a pre-defined explicit network (e.g. Facebook) as
  /// input would be straightforward: only the eager mode would suffice".
  /// Friends are scored with the configured similarity; zero-similarity
  /// friends still join with a minimal score of 1 (a declared friend is a
  /// neighbour regardless of overlap), and the top-c get replicas.
  void SeedExplicitNetworks(const std::vector<std::vector<UserId>>& friends);

  // -- Lazy mode -----------------------------------------------------------

  /// Runs n lazy cycles over every online node.
  void RunLazyCycles(std::uint64_t n);

  // -- Eager mode (queries) -------------------------------------------------

  /// Issues a query: computes the querier's local partial result, builds her
  /// remaining list, and returns the query id.
  std::uint64_t IssueQuery(const QuerySpec& spec);

  /// Runs n eager cycles; every node holding a non-empty remaining list
  /// gossips once per cycle per query, and queriers refresh their top-k at
  /// the end of each cycle.
  void RunEagerCycles(std::uint64_t n);

  /// Querier-side state of a query.
  ActiveQuery& query(std::uint64_t query_id);
  const ActiveQuery& query(std::uint64_t query_id) const;

  /// True when no remaining list for the query exists anywhere.
  bool QueryComplete(std::uint64_t query_id) const;

  /// Users reached by the query's gossip so far (includes the querier), in
  /// ascending id.
  const std::vector<UserId>& QueryReached(std::uint64_t query_id) const;

  /// True when the query was issued and not yet forgotten.
  bool HasQuery(std::uint64_t query_id) const;

  /// Ids of all issued queries.
  std::vector<std::uint64_t> AllQueryIds() const;

  /// Drops finished query state (frees memory in long sweeps).
  void ForgetQuery(std::uint64_t query_id);

  // -- Dynamism -------------------------------------------------------------

  /// Publishes an update batch: store versions bump and each changed user's
  /// node learns its own new profile immediately.
  void ApplyUpdateBatch(const UpdateBatch& batch);

  /// Takes a random fraction of online users offline; returns them.
  std::vector<UserId> FailRandomFraction(double fraction);

  /// Takes one user offline (duty-cycle churn goes through here so every
  /// departure path shares any future departure bookkeeping). No-op for
  /// users already offline.
  void FailUser(UserId user) { network_.SetOnline(user, false); }

  /// Brings a departed user back: marks her online, re-syncs her own profile
  /// to the store's current snapshot (she may have tagged while away) and
  /// re-bootstraps her random view with r uniformly random *online* peers —
  /// the peer-sampling service a rejoining node would contact. Her personal
  /// network (and its stored replicas) survives the absence, as replicas do
  /// in the paper's churn model. No-op for users already online.
  void RejoinUser(UserId user);

  /// Brings a uniformly random `fraction` (clamped to [0, 1]) of currently
  /// offline users back via RejoinUser; returns them.
  std::vector<UserId> RejoinRandomFraction(double fraction);

  // -- Internals shared by the protocols ------------------------------------

  /// The configured similarity metric applied to the pair (what the
  /// personal networks rank by), scored by the exact pair kernel
  /// (profile/score_kernel.h).
  std::uint64_t ScoreBetween(const Profile& a, const Profile& b) const {
    return SimilarityScore(config_.similarity,
                           KernelPairSimilarity(a, b).score, a.Length(),
                           b.Length());
  }

  EagerProtocol& eager() { return *eager_; }

  /// The worker pool both engines borrow; the eager mode's end of cycle
  /// runs on it too.
  WorkerPool& pool() { return pool_; }

  // -- Checkpointing ---------------------------------------------------------

  /// Serializes the complete mutable system state at a cycle barrier into
  /// `out`: the interned profile pool, the store's current snapshots,
  /// liveness flags, traffic metrics, the system rng, every node (own
  /// profile, rng, personal network, random view, probe memo, eager tasks),
  /// both engines (cycle counters + in-flight messages) and the eager
  /// protocol's query state. Configuration and dataset are NOT serialized —
  /// the loading side must be constructed from the same dataset/config/seed
  /// (the engine seeds are verified on load).
  void SaveCheckpoint(CheckpointWriter* out) const;

  /// Restores state written by SaveCheckpoint. Throws CheckpointError on
  /// malformed input or when the snapshot does not match this system (user
  /// count, engine seeds). On failure the system may be partially restored
  /// — construct a fresh system before retrying.
  void LoadCheckpoint(CheckpointReader* in);

 private:
  /// The checkpoint layout of the system section; `self` is const when
  /// saving.
  template <class Io, class Self>
  static void Transfer(Io& io, Self& self);

  P3QConfig config_;
  Rng rng_;
  ProfileStore store_;
  Network network_;
  // Built before the engines, which are constructed with pointers to them.
  WorkerPool pool_;
  std::unique_ptr<LazyProtocol> lazy_;
  std::unique_ptr<EagerProtocol> eager_;
  Engine engine_;        ///< drives the lazy protocol's cycles
  Engine eager_engine_;  ///< drives the eager protocol's cycles
  std::vector<std::unique_ptr<P3QNode>> nodes_;
  LatencySpec latency_spec_;  ///< default: zero latency
  Tracer* tracer_ = nullptr;
};

}  // namespace p3q

#endif  // P3Q_CORE_P3Q_SYSTEM_H_
