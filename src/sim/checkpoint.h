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

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "gossip/view.h"
#include "profile/profile.h"
#include "sim/metrics.h"

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

/// Little-endian append-only byte sink for checkpoint payloads.
class CheckpointWriter {
 public:
  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  /// Doubles travel as their IEEE-754 bit pattern — exact round-trip.
  void F64(double v);
  /// Length-prefixed (u64) byte string.
  void Str(const std::string& s);
  void Bytes(const void* data, std::size_t size);
  /// Writes a section-boundary sentinel; readers verify it by name.
  void Sentinel();
  /// Appends another writer's buffer verbatim (used to order the profile
  /// pool ahead of the body that interned into it).
  void Append(const CheckpointWriter& other);

  const std::vector<std::uint8_t>& buffer() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian reader over a checkpoint payload. Every
/// primitive read throws CheckpointError instead of running off the end.
class CheckpointReader {
 public:
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
  /// Verifies a section-boundary sentinel; `section` names it in errors.
  void Sentinel(const char* section);

  std::size_t Remaining() const { return size_ - pos_; }
  /// Throws unless the payload was consumed exactly.
  void ExpectEnd() const;

 private:
  void Need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Interns every distinct profile snapshot referenced by a checkpoint so
/// replicas that share a snapshot in memory share one pool entry on disk.
/// Write the body into a scratch writer (interning as you go), then
/// serialize the pool ahead of the body.
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

// Shared small-structure codecs used by several checkpoint sections.

/// Writes a (user, profile snapshot) descriptor as user id + pool ref.
void WriteDigestInfo(CheckpointWriter* out, ProfilePool* pool,
                     const DigestInfo& digest);

/// Reads a descriptor; throws when the user is not below `num_users`, when
/// the snapshot reference is null or out of range (a digest always carries
/// a snapshot), or when the snapshot belongs to another user.
DigestInfo ReadDigestInfo(CheckpointReader* in, const ProfileTable& profiles,
                          std::size_t num_users);

/// Reads a user id; throws unless it is below `num_users`. `what` names the
/// field in the error.
UserId ReadUserId(CheckpointReader* in, std::size_t num_users,
                  const char* what);

void WriteRngState(CheckpointWriter* out, const Rng& rng);
void ReadRngState(CheckpointReader* in, Rng* rng);

void WriteMetrics(CheckpointWriter* out, const Metrics& metrics);
Metrics ReadMetrics(CheckpointReader* in);

void WriteDeliveryStats(CheckpointWriter* out, const DeliveryStats& stats);
DeliveryStats ReadDeliveryStats(CheckpointReader* in);

void WriteQueryLatencyStats(CheckpointWriter* out,
                            const QueryLatencyStats& stats);
QueryLatencyStats ReadQueryLatencyStats(CheckpointReader* in);

/// Frames `payload` (magic, version, CRC) and writes it to `path`.
/// Throws CheckpointError on I/O failure.
void WriteCheckpointFile(const std::string& path,
                         const CheckpointWriter& payload);

/// Reads `path`, validates magic/version/CRC, and returns the payload
/// bytes. Throws CheckpointError with a friendly message on any problem.
std::vector<std::uint8_t> ReadCheckpointPayload(const std::string& path);

}  // namespace p3q

#endif  // P3Q_SIM_CHECKPOINT_H_
