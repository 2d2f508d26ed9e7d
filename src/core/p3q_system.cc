#include "core/p3q_system.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/eager_protocol.h"
#include "core/lazy_protocol.h"
#include "sim/checkpoint.h"
#include "sim/delivery.h"

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
      lazy_(std::make_unique<LazyProtocol>(this)),
      eager_(std::make_unique<EagerProtocol>(this)),
      engine_(store_.NumUsers(), SplitMix64(&seed), lazy_.get()),
      eager_engine_(store_.NumUsers(), SplitMix64(&seed), eager_.get()) {
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
  // Both engines deliver under the one spec; each keeps its own queue.
  engine_.SetLatency(spec);
  eager_engine_.SetLatency(spec);
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
  for (const std::unique_ptr<P3QNode>& n : nodes_) {
    stats.probe_memo_bytes += n->probed_versions().MemoryBytes();
    stats.probe_memo_entries += n->probed_versions().size();
    stats.personal_network_bytes += n->network().MemoryBytes();
    stats.network_index_bytes += n->network().IndexBytes();
    stats.random_view_bytes += n->random_view().MemoryBytes();
  }
  stats.peak_in_flight_messages =
      engine_.DeliveryStatsTotal().max_in_flight +
      eager_engine_.DeliveryStatsTotal().max_in_flight;
  stats.peak_message_arena_bytes = engine_.message_arenas().peak_bytes() +
                                   eager_engine_.message_arenas().peak_bytes();
  stats.message_arena_bytes = engine_.message_arenas().held_bytes() +
                              eager_engine_.message_arenas().held_bytes();
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

const std::vector<UserId>& P3QSystem::QueryReached(
    std::uint64_t query_id) const {
  return eager_->Reached(query_id);
}

bool P3QSystem::HasQuery(std::uint64_t query_id) const {
  return eager_->HasQuery(query_id);
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

template <class Io, class Self>
void P3QSystem::Transfer(Io& io, Self& self) {
  std::uint64_t num_users = self.NumUsers();
  io.U64(num_users);
  if (num_users != self.NumUsers()) {
    throw CheckpointError("checkpoint has " + std::to_string(num_users) +
                          " users but this system has " +
                          std::to_string(self.NumUsers()) +
                          " (different dataset or scenario)");
  }
  // The store's current snapshots, which a load restores all at once.
  std::vector<ProfilePtr> snapshots(static_cast<std::size_t>(num_users));
  for (UserId u = 0; u < static_cast<UserId>(num_users); ++u) {
    snapshots[u] = self.store_.Get(u);
    io.Profile(snapshots[u]);
    if (Io::kLoading &&
        (snapshots[u] == nullptr || snapshots[u]->owner() != u)) {
      throw CheckpointError("store snapshot for user " + std::to_string(u) +
                            " is missing or owned by someone else");
    }
  }
  if constexpr (Io::kLoading) {
    self.store_.RestoreSnapshots(std::move(snapshots));
  }
  for (UserId u = 0; u < static_cast<UserId>(num_users); ++u) {
    bool online = self.network_.IsOnline(u);
    io.Bool(online);
    if constexpr (Io::kLoading) self.network_.SetOnline(u, online);
  }
  p3q::Transfer(io, self.network_.metrics());
  p3q::Transfer(io, self.rng_);
  io.Sentinel("system header");

  for (UserId u = 0; u < static_cast<UserId>(num_users); ++u) {
    auto& n = self.node(u);
    ProfilePtr own = n.profile();
    io.Profile(own);
    if (Io::kLoading && (own == nullptr || own->owner() != u)) {
      throw CheckpointError("own profile of user " + std::to_string(u) +
                            " is missing or owned by someone else");
    }
    if constexpr (Io::kLoading) n.SetOwnProfile(std::move(own));
    p3q::Transfer(io, n.rng());

    // The personal network: each entry with its timestamp and stored
    // replica, from which a load rebuilds the network.
    auto& network = n.network();
    std::vector<NetworkEntry> entries;
    std::vector<std::uint32_t> timestamps;
    std::vector<ProfilePtr> replicas;
    if constexpr (!Io::kLoading) {
      for (const NetworkEntry& e : network.entries()) {
        entries.push_back(e);
        timestamps.push_back(network.Timestamp(e));
        replicas.push_back(network.StoredProfileOf(e));
      }
    }
    std::uint64_t num_entries = entries.size();
    io.Count(num_entries, 20);
    entries.resize(static_cast<std::size_t>(num_entries));
    timestamps.resize(entries.size());
    replicas.resize(entries.size());
    for (std::size_t e = 0; e < entries.size(); ++e) {
      io.User(entries[e].user, "network entry user");
      io.U32(entries[e].score);
      io.U32(entries[e].digest_version);
      io.U32(timestamps[e]);
      io.Profile(replicas[e]);
      if (Io::kLoading && replicas[e] != nullptr &&
          replicas[e]->owner() != entries[e].user) {
        throw CheckpointError("personal-network entry of user " +
                              std::to_string(u) +
                              " carries another user's profile");
      }
    }
    if constexpr (Io::kLoading) {
      network.RestoreEntries(entries, std::move(replicas), timestamps);
      if (const std::string broken = network.CheckInvariants();
          !broken.empty()) {
        throw CheckpointError("personal network of user " +
                              std::to_string(u) + ": " + broken);
      }
    }

    std::vector<DigestInfo> view = n.random_view().entries();
    io.Vector(view, 8, [&](auto& digest) { io.Digest(digest); });
    if constexpr (Io::kLoading) n.random_view().Init(std::move(view));

    // Each memo user once, ascending: a repeated or descending user would
    // let a later entry silently replace an earlier one.
    std::vector<std::pair<UserId, std::uint32_t>> probed =
        n.probed_versions().Sorted();
    io.Vector(probed, 8, [&](auto& entry) {
      io.User(entry.first, "probed user");
      io.U32(entry.second);
    });
    if constexpr (Io::kLoading) {
      n.probed_versions().Clear();
      for (std::size_t p = 0; p < probed.size(); ++p) {
        if (p > 0 && probed[p].first <= probed[p - 1].first) {
          throw CheckpointError(
              "probe memo of user " + std::to_string(u) + " lists user " +
              std::to_string(probed[p].first) + " after user " +
              std::to_string(probed[p - 1].first) +
              ": probed users out of order in checkpoint");
        }
        n.probed_versions().Set(probed[p].first, probed[p].second);
      }
    }

    io.SortedValues(n.tasks(), 45, [&](auto& task) {
      io.U64(task.query_id);
      io.User(task.querier, "querier");
      io.Vector(task.tags, 4, [&](auto& tag) { io.U32(tag); });
      io.Users(task.remaining, "remaining-list user");
      io.U64(task.epoch);
      io.U32(task.generation);
      io.Bool(task.in_flight);
      io.U64(task.in_flight_until);
      if constexpr (Io::kLoading) {
        // The protocol erases a task whose list empties; a restored empty
        // one would make the budgeted eager plan rotate over zero query
        // ids.
        if (task.remaining.empty()) {
          throw CheckpointError("user " + std::to_string(u) +
                                " holds an empty task for query " +
                                std::to_string(task.query_id));
        }
        if (n.tasks().contains(task.query_id)) {
          throw CheckpointError("user " + std::to_string(u) +
                                " holds two tasks for query " +
                                std::to_string(task.query_id));
        }
      }
      return task.query_id;
    });
  }
  io.Sentinel("nodes");

  TransferState(io, self.engine_);
  TransferState(io, self.eager_engine_);
  TransferState(io, *self.eager_);
}

void P3QSystem::SaveCheckpoint(CheckpointWriter* out) const {
  // The pool must precede the body on disk, but only the body knows which
  // profiles it references. A measuring pass interns them and counts the
  // body's bytes; then `out` grows once, takes the pool and the body.
  CheckpointWriter body = CheckpointWriter::Measuring();
  Transfer(body, *this);
  CheckpointWriter pool = CheckpointWriter::Measuring();
  body.pool().Serialize(&pool);
  out->Reserve(pool.size() + body.size());
  out->WritePool(body.TakePool());
  Transfer(*out, *this);
}

void P3QSystem::LoadCheckpoint(CheckpointReader* in) {
  // Passing the store lets the loader share the store's current snapshots
  // (same owner/version/actions) and land rebuilt ones back on the store's
  // arena shards.
  in->SetProfiles(ProfileTable::Deserialize(in, config_.digest_bits, &store_));
  in->SetPopulation(NumUsers());
  Transfer(*in, *this);
}

}  // namespace p3q
