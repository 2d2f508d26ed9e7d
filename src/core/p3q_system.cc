#include "core/p3q_system.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/eager_protocol.h"
#include "core/lazy_protocol.h"
#include "sim/checkpoint.h"

namespace p3q {

P3QSystem::P3QSystem(const Dataset& dataset, const P3QConfig& config,
                     std::vector<int> per_user_storage, std::uint64_t seed)
    : P3QSystem(dataset.BuildProfileStore(config.digest_bits), config,
                std::move(per_user_storage), seed) {}

P3QSystem::P3QSystem(ProfileStore&& store, const P3QConfig& config,
                     std::vector<int> per_user_storage, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      store_(std::move(store)),
      network_(store_.NumUsers()),
      engine_(store_.NumUsers(), SplitMix64(&seed)),
      eager_engine_(store_.NumUsers(), SplitMix64(&seed)) {
  const std::string problem = config_.Validate();
  if (!problem.empty()) {
    throw std::invalid_argument("P3QConfig: " + problem);
  }
  if (per_user_storage.empty()) {
    per_user_storage.assign(store_.NumUsers(), config_.stored_profiles);
  }
  if (per_user_storage.size() != store_.NumUsers()) {
    throw std::invalid_argument(
        "per_user_storage must have one entry per user (or be empty)");
  }
  nodes_.reserve(store_.NumUsers());
  for (UserId u = 0; u < static_cast<UserId>(store_.NumUsers()); ++u) {
    const int c = std::min(per_user_storage[u], config_.network_size);
    nodes_.push_back(std::make_unique<P3QNode>(u, store_.Get(u), config_,
                                               std::max(1, c), rng_.Fork()));
  }
  lazy_ = std::make_unique<LazyProtocol>(this);
  eager_ = std::make_unique<EagerProtocol>(this);
  engine_.AddProtocol(lazy_.get());
  engine_.SetLivenessCheck([this](UserId u) { return network_.IsOnline(u); });
  eager_engine_.AddProtocol(eager_.get());
  eager_engine_.SetLivenessCheck(
      [this](UserId u) { return network_.IsOnline(u); });
}

void P3QSystem::SetThreads(int threads) {
  engine_.SetThreads(threads);
  eager_engine_.SetThreads(threads);
}

void P3QSystem::SetTracer(Tracer* tracer) {
  tracer_ = tracer;
  engine_.SetTracer(tracer);
  eager_engine_.SetTracer(tracer);
}

void P3QSystem::SetProfiler(PhaseProfiler* profiler) {
  engine_.SetProfiler(profiler, "lazy");
  eager_engine_.SetProfiler(profiler, "eager");
}

void P3QSystem::SetLatency(const LatencySpec& spec) {
  if (const std::string problem = spec.Validate(); !problem.empty()) {
    throw std::invalid_argument("LatencySpec: " + problem);
  }
  latency_spec_ = spec;
  // One shared model drives both engines; each engine keeps its own queue.
  std::shared_ptr<const LatencyModel> model = MakeLatencyModel(spec);
  engine_.SetLatencyModel(model);
  eager_engine_.SetLatencyModel(std::move(model));
}

DeliveryStats P3QSystem::DeliveryStatsTotal() const {
  DeliveryStats total = engine_.DeliveryStatsTotal();
  total.MergeFrom(eager_engine_.DeliveryStatsTotal());
  // Both protocol-level counts are monotone (Forget folds a dying query's
  // drops into the protocol total), so snapshot-then-Since phase deltas
  // never underflow.
  total.stale_dropped += eager_->stale_messages_dropped();
  total.stale_dropped += eager_->late_partial_results_dropped();
  return total;
}

std::size_t P3QSystem::MessagesInFlight() const {
  return engine_.MessagesInFlight() + eager_engine_.MessagesInFlight();
}

SystemMemoryStats P3QSystem::MemoryStats() const {
  SystemMemoryStats stats;
  stats.store = store_.MemoryStats();
  return stats;
}

P3QSystem::~P3QSystem() = default;

namespace {

/// Population size past which BootstrapRandomViews switches from the
/// per-user reservoir sweep (O(users) per user — O(users^2) total) to
/// rejection sampling straight out of the id space (O(r) per user). The
/// draw sequence differs between the two paths, so the threshold sits far
/// above every golden scale.
constexpr std::size_t kSparseBootstrapThreshold = 65536;

}  // namespace

void P3QSystem::BootstrapRandomViews() {
  const std::size_t r = static_cast<std::size_t>(config_.random_view_size);
  if (NumUsers() >= kSparseBootstrapThreshold) {
    // r distinct peers per user by rejection sampling; r is tiny, so the
    // duplicate scan is a handful of comparisons.
    std::vector<UserId> peers;
    for (UserId u = 0; u < static_cast<UserId>(NumUsers()); ++u) {
      peers.clear();
      const std::size_t want = std::min(r, NumUsers() - 1);
      while (peers.size() < want) {
        const UserId v = static_cast<UserId>(rng_.NextUint64(NumUsers()));
        if (v == u ||
            std::find(peers.begin(), peers.end(), v) != peers.end()) {
          continue;
        }
        peers.push_back(v);
      }
      std::vector<DigestInfo> entries;
      entries.reserve(peers.size());
      for (UserId v : peers) entries.push_back(DigestInfo{v, store_.Get(v)});
      node(u).random_view().Init(std::move(entries));
    }
    return;
  }
  std::vector<UserId> all(NumUsers());
  for (UserId u = 0; u < static_cast<UserId>(NumUsers()); ++u) all[u] = u;
  for (UserId u = 0; u < static_cast<UserId>(NumUsers()); ++u) {
    std::vector<UserId> peers = rng_.SampleWithoutReplacement(all, r + 1);
    std::vector<DigestInfo> entries;
    for (UserId v : peers) {
      if (v == u) continue;
      if (entries.size() >= r) {
        break;
      }
      entries.push_back(DigestInfo{v, store_.Get(v)});
    }
    node(u).random_view().Init(std::move(entries));
  }
}

void P3QSystem::SeedNetworks(
    const std::vector<std::vector<std::pair<UserId, std::uint64_t>>>& ideal) {
  assert(ideal.size() == NumUsers());
  for (UserId u = 0; u < static_cast<UserId>(NumUsers()); ++u) {
    PersonalNetwork& network = node(u).network();
    for (const auto& [v, score] : ideal[u]) {
      if (score == 0) continue;
      const ProfilePtr snapshot = store_.Get(v);
      network.Consider(v, score, DigestInfo{v, snapshot}, snapshot);
    }
  }
}

void P3QSystem::SeedExplicitNetworks(
    const std::vector<std::vector<UserId>>& friends) {
  assert(friends.size() == NumUsers());
  for (UserId u = 0; u < static_cast<UserId>(NumUsers()); ++u) {
    PersonalNetwork& network = node(u).network();
    const Profile& mine = *node(u).profile();
    for (UserId v : friends[u]) {
      if (v == u || v >= NumUsers()) continue;
      const ProfilePtr snapshot = store_.Get(v);
      std::uint64_t score = ScoreBetween(mine, *snapshot);
      if (score == 0) score = 1;  // declared friends always qualify
      network.Consider(v, score, DigestInfo{v, snapshot}, snapshot);
    }
  }
}

void P3QSystem::RunLazyCycles(std::uint64_t n) { engine_.RunCycles(n); }

void P3QSystem::AddLazyObserver(std::function<void(std::uint64_t)> observer) {
  engine_.AddObserver(std::move(observer));
}

std::uint64_t P3QSystem::IssueQuery(const QuerySpec& spec) {
  return eager_->IssueQuery(spec);
}

void P3QSystem::RunEagerCycles(std::uint64_t n) {
  eager_engine_.RunCycles(n);
}

ActiveQuery& P3QSystem::query(std::uint64_t query_id) {
  return eager_->query(query_id);
}

const ActiveQuery& P3QSystem::query(std::uint64_t query_id) const {
  return eager_->query(query_id);
}

bool P3QSystem::QueryComplete(std::uint64_t query_id) const {
  return eager_->Complete(query_id);
}

const std::unordered_set<UserId>& P3QSystem::QueryReached(
    std::uint64_t query_id) const {
  return eager_->Reached(query_id);
}

std::vector<std::uint64_t> P3QSystem::AllQueryIds() const {
  return eager_->AllQueryIds();
}

void P3QSystem::ForgetQuery(std::uint64_t query_id) {
  eager_->Forget(query_id);
}

void P3QSystem::ApplyUpdateBatch(const UpdateBatch& batch) {
  batch.ApplyTo(&store_);
  for (const ProfileUpdate& update : batch.updates) {
    node(update.user).SetOwnProfile(store_.Get(update.user));
  }
}

std::vector<UserId> P3QSystem::FailRandomFraction(double fraction) {
  return network_.FailRandomFraction(fraction, &rng_);
}

void P3QSystem::RejoinUser(UserId user) {
  if (network_.IsOnline(user)) return;
  network_.SetOnline(user, true);
  node(user).SetOwnProfile(store_.Get(user));
  // Re-bootstrap the random view from the currently-online population (the
  // bootstrap peer-sampling service only hands out live peers).
  std::vector<UserId> candidates = network_.OnlineUsers();
  candidates.erase(std::remove(candidates.begin(), candidates.end(), user),
                   candidates.end());
  std::vector<UserId> peers = rng_.SampleWithoutReplacement(
      candidates, static_cast<std::size_t>(config_.random_view_size));
  std::sort(peers.begin(), peers.end());
  std::vector<DigestInfo> entries;
  entries.reserve(peers.size());
  for (UserId v : peers) entries.push_back(DigestInfo{v, store_.Get(v)});
  node(user).random_view().Init(std::move(entries));
}

std::vector<UserId> P3QSystem::RejoinRandomFraction(double fraction) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  const std::vector<UserId> away = network_.OfflineUsers();
  const std::size_t num_back =
      static_cast<std::size_t>(static_cast<double>(away.size()) * fraction);
  std::vector<UserId> back = rng_.SampleWithoutReplacement(away, num_back);
  for (UserId u : back) RejoinUser(u);
  return back;
}

void P3QSystem::SaveCheckpoint(CheckpointWriter* out) const {
  // The body is written to a scratch buffer while interning profiles; the
  // pool must precede the body on disk so the loader can resolve refs.
  ProfilePool pool;
  CheckpointWriter body;

  const UserId num_users = static_cast<UserId>(NumUsers());
  body.U64(num_users);
  for (UserId u = 0; u < num_users; ++u) {
    body.U32(pool.Intern(store_.Get(u)));
  }
  for (UserId u = 0; u < num_users; ++u) {
    body.U8(network_.IsOnline(u) ? 1 : 0);
  }
  WriteMetrics(&body, network_.metrics());
  WriteRngState(&body, rng_);
  body.Sentinel();

  for (UserId u = 0; u < num_users; ++u) {
    const P3QNode& n = node(u);
    body.U32(pool.Intern(n.profile()));
    WriteRngState(&body, n.rng());

    const std::vector<NetworkEntry>& entries = n.network().entries();
    body.U64(entries.size());
    for (const NetworkEntry& e : entries) {
      body.U32(e.user);
      body.U64(e.score);
      WriteDigestInfo(&body, &pool, e.digest);
      body.U32(e.timestamp);
      body.U32(pool.Intern(e.stored_profile));
    }

    const std::vector<DigestInfo>& view = n.random_view().entries();
    body.U64(view.size());
    for (const DigestInfo& d : view) WriteDigestInfo(&body, &pool, d);

    std::vector<std::pair<UserId, std::uint32_t>> probed(
        n.probed_versions().begin(), n.probed_versions().end());
    std::sort(probed.begin(), probed.end());
    body.U64(probed.size());
    for (const auto& [user, version] : probed) {
      body.U32(user);
      body.U32(version);
    }

    std::vector<std::uint64_t> task_ids;
    task_ids.reserve(n.tasks().size());
    for (const auto& [id, task] : n.tasks()) task_ids.push_back(id);
    std::sort(task_ids.begin(), task_ids.end());
    body.U64(task_ids.size());
    for (std::uint64_t id : task_ids) {
      const EagerTask& task = n.tasks().at(id);
      body.U64(task.query_id);
      body.U32(task.querier);
      body.U64(task.tags.size());
      for (TagId tag : task.tags) body.U32(tag);
      body.U64(task.remaining.size());
      for (UserId r : task.remaining) body.U32(r);
      body.U64(task.epoch);
      body.U32(task.generation);
      body.U8(task.in_flight ? 1 : 0);
      body.U64(task.in_flight_until);
    }
  }
  body.Sentinel();

  engine_.SaveState(&body, &pool);
  eager_engine_.SaveState(&body, &pool);
  eager_->SaveState(&body);

  pool.Serialize(out);
  out->Append(body);
}

void P3QSystem::LoadCheckpoint(CheckpointReader* in) {
  // Passing the store lets the loader share still-live snapshots (same
  // owner/version/actions) through the snapshot pool and land rebuilt ones
  // back on the store's arena shards.
  const ProfileTable profiles =
      ProfileTable::Deserialize(in, config_.digest_bits, &store_);

  const std::uint64_t num_users = in->U64();
  if (num_users != NumUsers()) {
    throw CheckpointError("checkpoint has " + std::to_string(num_users) +
                          " users but this system has " +
                          std::to_string(NumUsers()) +
                          " (different dataset or scenario)");
  }
  std::vector<ProfilePtr> snapshots;
  snapshots.reserve(static_cast<std::size_t>(num_users));
  for (UserId u = 0; u < static_cast<UserId>(num_users); ++u) {
    const ProfilePtr& snapshot = profiles.Get(in->U32());
    if (snapshot == nullptr || snapshot->owner() != u) {
      throw CheckpointError("store snapshot for user " + std::to_string(u) +
                            " is missing or owned by someone else");
    }
    snapshots.push_back(snapshot);
  }
  store_.RestoreSnapshots(std::move(snapshots));
  for (UserId u = 0; u < static_cast<UserId>(num_users); ++u) {
    network_.SetOnline(u, in->U8() != 0);
  }
  network_.metrics() = ReadMetrics(in);
  ReadRngState(in, &rng_);
  in->Sentinel("system header");

  for (UserId u = 0; u < static_cast<UserId>(num_users); ++u) {
    P3QNode& n = node(u);
    const ProfilePtr& own = profiles.Get(in->U32());
    if (own == nullptr || own->owner() != u) {
      throw CheckpointError("own profile of user " + std::to_string(u) +
                            " is missing or owned by someone else");
    }
    n.SetOwnProfile(own);
    ReadRngState(in, &n.rng());

    const std::uint64_t num_entries = in->Count(25);
    std::vector<NetworkEntry> entries;
    entries.reserve(static_cast<std::size_t>(num_entries));
    for (std::uint64_t e = 0; e < num_entries; ++e) {
      NetworkEntry entry;
      entry.user = in->U32();
      entry.score = in->U64();
      entry.digest = ReadDigestInfo(in, profiles);
      entry.timestamp = in->U32();
      entry.stored_profile = profiles.Get(in->U32());
      if (entry.digest.user != entry.user ||
          (entry.stored_profile != nullptr &&
           entry.stored_profile->owner() != entry.user)) {
        throw CheckpointError("personal-network entry of user " +
                              std::to_string(u) +
                              " carries another user's profile");
      }
      entries.push_back(std::move(entry));
    }
    n.network().RestoreEntries(std::move(entries));
    if (const std::string broken = n.network().CheckInvariants();
        !broken.empty()) {
      throw CheckpointError("personal network of user " + std::to_string(u) +
                            ": " + broken);
    }

    const std::uint64_t num_view = in->Count(8);
    std::vector<DigestInfo> view;
    view.reserve(static_cast<std::size_t>(num_view));
    for (std::uint64_t v = 0; v < num_view; ++v) {
      view.push_back(ReadDigestInfo(in, profiles));
    }
    n.random_view().Init(std::move(view));

    n.probed_versions().clear();
    const std::uint64_t num_probed = in->Count(8);
    for (std::uint64_t p = 0; p < num_probed; ++p) {
      const UserId user = in->U32();
      const std::uint32_t version = in->U32();
      n.probed_versions()[user] = version;
    }

    n.tasks().clear();
    const std::uint64_t num_tasks = in->Count(45);
    for (std::uint64_t t = 0; t < num_tasks; ++t) {
      EagerTask task;
      task.query_id = in->U64();
      task.querier = in->U32();
      const std::uint64_t num_tags = in->Count(4);
      task.tags.reserve(static_cast<std::size_t>(num_tags));
      for (std::uint64_t g = 0; g < num_tags; ++g) {
        task.tags.push_back(in->U32());
      }
      const std::uint64_t num_remaining = in->Count(4);
      task.remaining.reserve(static_cast<std::size_t>(num_remaining));
      for (std::uint64_t r = 0; r < num_remaining; ++r) {
        task.remaining.push_back(in->U32());
      }
      task.epoch = in->U64();
      task.generation = in->U32();
      task.in_flight = in->U8() != 0;
      task.in_flight_until = in->U64();
      const std::uint64_t id = task.query_id;
      if (!n.tasks().emplace(id, std::move(task)).second) {
        throw CheckpointError("user " + std::to_string(u) +
                              " holds two tasks for query " +
                              std::to_string(id));
      }
    }
  }
  in->Sentinel("nodes");

  engine_.LoadState(in, profiles);
  eager_engine_.LoadState(in, profiles);
  eager_->LoadState(in);
}

}  // namespace p3q
