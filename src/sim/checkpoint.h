// Versioned binary snapshots of a running simulation.
//
// Everything a cycle barrier owns — node state, in-flight messages, rng
// stream cursors, metric accumulators, the runner's timeline position — is
// serializable, because the engine's plan/commit contract guarantees that
// between cycles no shard-local scratch state survives. A checkpoint taken
// at the top of cycle K therefore captures the complete system, and a
// resumed run replays the remaining timeline byte-identically: same
// reports, same traces, for every thread count and latency model.
//
// On-disk format (all integers little-endian, doubles as IEEE-754 bit
// patterns):
//
//   magic   8 bytes  "P3QCKPT\0"
//   version u32      kCheckpointVersion (currently 2)
//   crc32   u32      CRC-32 (polynomial 0xEDB88320) of the payload
//   payload          header / profile pool / system / runner sections,
//                    each terminated by a section sentinel
//
// Every decode path is bounds-checked and throws CheckpointError on any
// structural problem (truncation, bad magic, other version, checksum
// mismatch, out-of-range ids) — corrupt input must never crash or invoke
// undefined behaviour.
#ifndef P3Q_SIM_CHECKPOINT_H_
#define P3Q_SIM_CHECKPOINT_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/counters.h"
#include "common/random.h"
#include "gossip/view.h"
#include "profile/profile.h"

namespace p3q {

class ProfileStore;

/// Typed error for every way a snapshot can fail to load: missing file,
/// bad magic, unsupported version, checksum mismatch, truncation, or a
/// semantically invalid field. Messages are human-friendly and name the
/// offending structure.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error(what) {}
};

/// First 8 bytes of every checkpoint file.
inline constexpr unsigned char kCheckpointMagic[8] = {'P', '3', 'Q', 'C',
                                                      'K', 'P', 'T', '\0'};

/// Current on-disk format version. Bump on any incompatible layout change;
/// loaders reject every other version, older and newer alike. Version 2
/// writes a personal-network entry's digest version where version 1 wrote a
/// snapshot reference, and its score in 32 bits.
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// Profile-pool reference meaning "null ProfilePtr".
inline constexpr std::uint32_t kNullProfileRef = 0xffffffffu;

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over a byte range.
std::uint32_t Crc32(const std::uint8_t* data, std::size_t size);

class CheckpointWriter;
class CheckpointReader;

/// Interns every distinct profile snapshot referenced by a checkpoint so
/// replicas that share a snapshot in memory share one pool entry on disk.
/// A CheckpointWriter interns into its own pool as it writes; the pool is
/// then serialized ahead of the body that referenced it.
class ProfilePool {
 public:
  /// Returns the pool id of `profile`, interning it on first sight.
  /// A null pointer maps to kNullProfileRef.
  std::uint32_t Intern(const ProfilePtr& profile);

  /// Writes the pool: count, then per profile owner/version/actions.
  void Serialize(CheckpointWriter* out) const;

  std::size_t size() const { return profiles_.size(); }

 private:
  std::unordered_map<const Profile*, std::uint32_t> ids_;
  std::vector<ProfilePtr> profiles_;
};

/// The load-side counterpart: reconstructs every pooled snapshot once (the
/// Profile constructor deterministically rebuilds digest and score index)
/// and resolves pool ids back to shared ProfilePtr handles.
///
/// When `reuse` is given, each pooled entry is first compared with the
/// store's current snapshot of its owner (ProfileStore::PoolFind): one with
/// the same version and byte-identical action set is shared instead of
/// rebuilt, and misses rebuild into the store's arena shard for that owner
/// — so a restored system's profile memory lands back on the slab arenas.
class ProfileTable {
 public:
  static ProfileTable Deserialize(CheckpointReader* in,
                                  std::size_t digest_bits,
                                  const ProfileStore* reuse = nullptr);

  /// Resolves a pool id; kNullProfileRef yields a null pointer, anything
  /// else out of range throws.
  const ProfilePtr& Get(std::uint32_t id) const;

  std::size_t size() const { return profiles_.size(); }

 private:
  std::vector<ProfilePtr> profiles_;
  ProfilePtr null_;
};

// A record's on-disk layout is one function template over `Io`, instantiated
// with CheckpointWriter to save it and with CheckpointReader to load it. The
// two classes offer the same primitives under the same names: the writer
// takes values (the record is const, see Transferred), the reader fills
// references and checks each field it can check alone (sizes, user ids,
// profile and digest references). `Io::kLoading` marks the code only a load
// runs: rebuilding what cannot be read in place, and the checks across
// fields, which run after the fields they compare.

/// The record a transfer writes from (const) or reads into.
template <class Io, class T>
using Transferred = std::conditional_t<Io::kLoading, T, const T>;

/// Little-endian append-only byte sink for checkpoint payloads. A measuring
/// writer (Measuring()) runs the same layouts, interning every profile they
/// reference, but only counts the bytes, so a payload can be sized before it
/// is written.
class CheckpointWriter {
 public:
  static constexpr bool kLoading = false;

  /// A writer that stores nothing: size() counts what it was given.
  static CheckpointWriter Measuring() {
    CheckpointWriter w;
    w.measuring_ = true;
    return w;
  }

  void U8(std::uint8_t v) { Bytes(&v, 1); }
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  /// Doubles travel as their IEEE-754 bit pattern — exact round-trip.
  void F64(double v);
  void Bool(bool v) { U8(v ? 1 : 0); }
  /// Length-prefixed (u64) byte string.
  void Str(const std::string& s);
  /// An element count (u64); see CheckpointReader::Count.
  void Count(std::uint64_t n, std::size_t /*min_elem_size*/) { U64(n); }
  /// The element count, then `elem(element)` for each element.
  template <class T, class A, class F>
  void Vector(const std::vector<T, A>& v, std::size_t min_elem_size,
              F&& elem) {
    Count(v.size(), min_elem_size);
    for (const T& e : v) elem(e);
  }
  /// The entry count, then per entry in key order its key (u64) and
  /// `entry(key, value)`.
  template <class V, class F>
  void Map(const std::map<std::uint64_t, V>& map, std::size_t min_entry_size,
           const char* /*disorder*/, F&& entry) {
    Count(map.size(), min_entry_size);
    for (const auto& [key, value] : map) {
      U64(key);
      entry(key, value);
    }
  }
  /// The entry count, then `entry(value)` per entry in ascending key
  /// order. Each value holds its own key, so keys are not written.
  template <class V, class F>
  void SortedValues(const std::unordered_map<std::uint64_t, V>& map,
                    std::size_t min_entry_size, F&& entry) {
    std::vector<const std::pair<const std::uint64_t, V>*> sorted;
    sorted.reserve(map.size());
    for (const auto& kv : map) sorted.push_back(&kv);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    Count(sorted.size(), min_entry_size);
    for (const auto* kv : sorted) entry(kv->second);
  }
  void User(UserId user, const char* /*what*/) { U32(user); }
  template <class A>
  void Users(const std::vector<UserId, A>& users, const char* what) {
    Vector(users, 4, [&](UserId user) { User(user, what); });
  }
  /// A strictly ascending user list (a set of users), written as Users.
  void AscendingUsers(const std::vector<UserId>& users, const char* what) {
    Users(users, what);
  }
  /// A profile snapshot as its pool reference, interning it in pool().
  void Profile(const ProfilePtr& profile) { U32(pool_.Intern(profile)); }
  /// A (user, profile snapshot) descriptor as user id + pool reference.
  void Digest(const DigestInfo& digest) {
    User(digest.user, "digest user");
    Profile(digest.snapshot);
  }
  /// Writes a section-boundary sentinel; readers verify it by name.
  void Sentinel(const char* /*section*/ = nullptr);
  void Bytes(const void* data, std::size_t size);
  /// Writes `pool`, then interns into it: a body measured with `pool` and
  /// written after it references the ids the pool was written with. This
  /// writer must not have interned a profile yet.
  void WritePool(ProfilePool pool);
  /// Grows the buffer's capacity by `bytes`, so the writers of one
  /// payload's parts, each reserving its own part, share one allocation.
  void Reserve(std::size_t bytes) {
    if (!measuring_) buf_.reserve(buf_.capacity() + bytes);
  }

  /// The bytes written, or measured, so far.
  std::size_t size() const { return measuring_ ? measured_ : buf_.size(); }
  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  /// Every snapshot Profile() and Digest() referenced.
  const ProfilePool& pool() const { return pool_; }
  ProfilePool TakePool() { return std::move(pool_); }

 private:
  std::vector<std::uint8_t> buf_;
  ProfilePool pool_;
  bool measuring_ = false;
  std::size_t measured_ = 0;
};

/// Bounds-checked little-endian reader over a checkpoint payload. Every
/// primitive read throws CheckpointError instead of running off the end.
/// Besides the writer's primitives it returns plain values, for framing
/// and tests.
class CheckpointReader {
 public:
  static constexpr bool kLoading = true;

  CheckpointReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t U8();
  std::uint32_t U32();
  std::uint64_t U64();
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  double F64();
  std::string Str();
  /// Reads an element count and validates it against the bytes actually
  /// remaining (each element needs at least `min_elem_size` bytes), so a
  /// corrupted count can never trigger a huge allocation.
  std::uint64_t Count(std::size_t min_elem_size);
  /// Reads a user id; throws unless it is below the population. `what`
  /// names the field in the error.
  UserId User(const char* what);

  // The writer's primitives, each reading into its argument.
  template <class T>
  void U32(T& v) {
    v = static_cast<T>(U32());
  }
  template <class T>
  void U64(T& v) {
    v = static_cast<T>(U64());
  }
  template <class T>
  void I64(T& v) {
    v = static_cast<T>(I64());
  }
  void F64(double& v) { v = F64(); }
  void Bool(bool& v) { v = U8() != 0; }
  void Str(std::string& s) { s = Str(); }
  void Count(std::uint64_t& n, std::size_t min_elem_size) {
    n = Count(min_elem_size);
  }
  /// Replaces `v` with the read elements, keeping its allocator.
  template <class T, class A, class F>
  void Vector(std::vector<T, A>& v, std::size_t min_elem_size, F&& elem) {
    v = std::vector<T, A>(static_cast<std::size_t>(Count(min_elem_size)),
                          v.get_allocator());
    for (T& e : v) elem(e);
  }
  /// Throws CheckpointError(`disorder`) unless the keys ascend strictly.
  template <class V, class F>
  void Map(std::map<std::uint64_t, V>& map, std::size_t min_entry_size,
           const char* disorder, F&& entry) {
    map.clear();
    const std::uint64_t count = Count(min_entry_size);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t key = U64();
      if (!map.empty() && key <= map.rbegin()->first) {
        throw CheckpointError(disorder);
      }
      entry(key, map.emplace_hint(map.end(), key, V{})->second);
    }
  }
  /// Loads each value into a fresh V; `entry` returns the value's key,
  /// which it has checked is new.
  template <class V, class F>
  void SortedValues(std::unordered_map<std::uint64_t, V>& map,
                    std::size_t min_entry_size, F&& entry) {
    map.clear();
    const std::uint64_t count = Count(min_entry_size);
    for (std::uint64_t i = 0; i < count; ++i) {
      V value{};
      const std::uint64_t key = entry(value);
      map.emplace(key, std::move(value));
    }
  }
  void User(UserId& user, const char* what) { user = User(what); }
  template <class A>
  void Users(std::vector<UserId, A>& users, const char* what) {
    Vector(users, 4, [&](UserId& user) { User(user, what); });
  }
  /// Reads a Users list and throws CheckpointError naming it (`what`)
  /// unless it ascends strictly: a repeated or descending id.
  void AscendingUsers(std::vector<UserId>& users, const char* what);
  /// Resolves a pool reference (see ProfileTable::Get).
  void Profile(ProfilePtr& profile) { profile = profiles_.Get(U32()); }
  /// Throws when the user is out of range, when the snapshot reference is
  /// null or out of range (a digest always carries a snapshot), or when the
  /// snapshot belongs to another user.
  void Digest(DigestInfo& digest);
  /// Verifies a section-boundary sentinel; `section` names it in errors.
  void Sentinel(const char* section);

  /// The population user ids are checked against: until it is set, every
  /// user id is refused. P3QSystem::LoadCheckpoint sets it.
  void SetPopulation(std::size_t num_users) { num_users_ = num_users; }
  std::size_t population() const { return num_users_; }
  /// The pool that Profile() and Digest() resolve references against:
  /// until it is set, every reference but kNullProfileRef is refused.
  /// P3QSystem::LoadCheckpoint sets it from the payload's pool section.
  void SetProfiles(ProfileTable profiles) { profiles_ = std::move(profiles); }

  std::size_t Remaining() const { return size_ - pos_; }
  /// Throws unless the payload was consumed exactly.
  void ExpectEnd() const;

 private:
  void Need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::size_t num_users_ = 0;
  ProfileTable profiles_;
};

/// Nests a record that keeps its layout private: saves it through
/// SaveState(CheckpointWriter*, args...) or loads it through
/// LoadState(CheckpointReader*, args...).
template <class Io, class Record, class... Args>
void TransferState(Io& io, Record& record, const Args&... args) {
  if constexpr (Io::kLoading) {
    record.LoadState(&io, args...);
  } else {
    record.SaveState(&io, args...);
  }
}

// Layouts of the small records several sections share.

template <class Io>
void Transfer(Io& io, Transferred<Io, Rng>& rng) {
  std::array<std::uint64_t, 4> state = rng.State();
  for (std::uint64_t& word : state) io.U64(word);
  if constexpr (Io::kLoading) rng.SetState(state);
}

/// A counter record's layout (common/counters.h) is its Counters() list:
/// integers as U64 and doubles as F64, arrays element by element.
template <class Io, class T>
  requires CounterRecord<std::remove_const_t<T>>
void Transfer(Io& io, T& counters) {
  ForEachCounter(
      [&](auto, auto& value) {
        if constexpr (std::is_integral_v<std::decay_t<decltype(value)>>) {
          io.U64(value);
        } else {
          io.F64(value);
        }
      },
      counters);
}

/// Frames `payload` (magic, version, CRC) and writes it to `path`.
/// Throws CheckpointError on I/O failure.
void WriteCheckpointFile(const std::string& path,
                         const CheckpointWriter& payload);

/// Reads `path`, validates magic/version/CRC, and returns the payload
/// bytes. Throws CheckpointError with a friendly message on any problem.
std::vector<std::uint8_t> ReadCheckpointPayload(const std::string& path);

}  // namespace p3q

#endif  // P3Q_SIM_CHECKPOINT_H_
