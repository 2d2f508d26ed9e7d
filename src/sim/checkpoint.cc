#include "sim/checkpoint.h"

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "profile/profile_store.h"

namespace p3q {

namespace {

/// Section-boundary marker. Arbitrary but fixed; mismatches mean the reader
/// and writer disagreed about a section's layout.
constexpr std::uint32_t kSectionSentinel = 0x7a9b1c2du;

std::string Plural(std::uint64_t n, const char* noun) {
  return std::to_string(n) + " " + noun + (n == 1 ? "" : "s");
}

}  // namespace

std::uint32_t Crc32(const std::uint8_t* data, std::size_t size) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

// ---------------------------------------------------------------------------
// CheckpointWriter
// ---------------------------------------------------------------------------

void CheckpointWriter::U32(std::uint32_t v) {
  std::uint8_t bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  Bytes(bytes, sizeof(bytes));
}

void CheckpointWriter::U64(std::uint64_t v) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  Bytes(bytes, sizeof(bytes));
}

void CheckpointWriter::F64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit IEEE-754");
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void CheckpointWriter::Str(const std::string& s) {
  U64(s.size());
  Bytes(s.data(), s.size());
}

void CheckpointWriter::Bytes(const void* data, std::size_t size) {
  if (measuring_) {
    measured_ += size;
    return;
  }
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), bytes, bytes + size);
}

void CheckpointWriter::Sentinel(const char* /*section*/) {
  U32(kSectionSentinel);
}

void CheckpointWriter::WritePool(ProfilePool pool) {
  pool.Serialize(this);
  pool_ = std::move(pool);
}

// ---------------------------------------------------------------------------
// CheckpointReader
// ---------------------------------------------------------------------------

void CheckpointReader::Need(std::size_t n) const {
  if (size_ - pos_ < n) {
    throw CheckpointError("corrupt checkpoint: truncated payload (wanted " +
                          Plural(n, "more byte") + " at offset " +
                          std::to_string(pos_) + ", have " +
                          std::to_string(size_ - pos_) + ")");
  }
}

std::uint8_t CheckpointReader::U8() {
  Need(1);
  return data_[pos_++];
}

std::uint32_t CheckpointReader::U32() {
  Need(4);
  std::uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<std::uint32_t>(data_[pos_++]) << shift;
  }
  return v;
}

std::uint64_t CheckpointReader::U64() {
  Need(8);
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<std::uint64_t>(data_[pos_++]) << shift;
  }
  return v;
}

double CheckpointReader::F64() {
  const std::uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string CheckpointReader::Str() {
  const std::uint64_t size = U64();
  Need(size);
  std::string s(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<std::size_t>(size));
  pos_ += static_cast<std::size_t>(size);
  return s;
}

std::uint64_t CheckpointReader::Count(std::size_t min_elem_size) {
  const std::uint64_t count = U64();
  const std::size_t elem = min_elem_size == 0 ? 1 : min_elem_size;
  if (count > Remaining() / elem) {
    throw CheckpointError(
        "corrupt checkpoint: element count " + std::to_string(count) +
        " exceeds what the remaining " + Plural(Remaining(), "byte") +
        " could hold");
  }
  return count;
}

UserId CheckpointReader::User(const char* what) {
  const UserId user = U32();
  if (user >= num_users_) {
    throw CheckpointError("corrupt checkpoint: " + std::string(what) + " " +
                          std::to_string(user) + " out of range (" +
                          Plural(num_users_, "user") + ")");
  }
  return user;
}

void CheckpointReader::AscendingUsers(std::vector<UserId>& users,
                                      const char* what) {
  Users(users, what);
  for (std::size_t i = 1; i < users.size(); ++i) {
    if (users[i] <= users[i - 1]) {
      throw CheckpointError("corrupt checkpoint: " + std::string(what) +
                            " list not strictly ascending (" +
                            std::to_string(users[i]) + " after " +
                            std::to_string(users[i - 1]) + ")");
    }
  }
}

void CheckpointReader::Digest(DigestInfo& digest) {
  digest.user = User("digest user");
  digest.snapshot = profiles_.Get(U32());
  if (digest.snapshot == nullptr) {
    throw CheckpointError(
        "corrupt checkpoint: digest descriptor without a profile snapshot");
  }
  if (digest.snapshot->owner() != digest.user) {
    throw CheckpointError("corrupt checkpoint: digest of user " +
                          std::to_string(digest.user) +
                          " carries a profile of user " +
                          std::to_string(digest.snapshot->owner()));
  }
}

void CheckpointReader::Sentinel(const char* section) {
  if (U32() != kSectionSentinel) {
    throw CheckpointError(std::string("corrupt checkpoint: bad section "
                                      "marker after ") +
                          section);
  }
}

void CheckpointReader::ExpectEnd() const {
  if (pos_ != size_) {
    throw CheckpointError("corrupt checkpoint: " +
                          Plural(size_ - pos_, "trailing byte") +
                          " after the final section");
  }
}

// ---------------------------------------------------------------------------
// ProfilePool / ProfileTable
// ---------------------------------------------------------------------------

std::uint32_t ProfilePool::Intern(const ProfilePtr& profile) {
  if (!profile) return kNullProfileRef;
  auto [it, inserted] =
      ids_.emplace(profile.get(), static_cast<std::uint32_t>(profiles_.size()));
  if (inserted) profiles_.push_back(profile);
  return it->second;
}

void ProfilePool::Serialize(CheckpointWriter* out) const {
  out->U64(profiles_.size());
  for (const ProfilePtr& p : profiles_) {
    out->U32(p->owner());
    out->U32(p->version());
    out->U64(p->actions().size());
    for (ActionKey a : p->actions()) out->U64(a);
  }
  out->Sentinel();
}

ProfileTable ProfileTable::Deserialize(CheckpointReader* in,
                                       std::size_t digest_bits,
                                       const ProfileStore* reuse) {
  ProfileTable table;
  const std::uint64_t count = in->Count(16);
  table.profiles_.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const UserId owner = in->U32();
    const std::uint32_t version = in->U32();
    const std::uint64_t num_actions = in->Count(8);
    std::vector<ActionKey> actions;
    actions.reserve(static_cast<std::size_t>(num_actions));
    for (std::uint64_t a = 0; a < num_actions; ++a) actions.push_back(in->U64());
    ProfilePtr snapshot;
    if (reuse != nullptr && owner < reuse->NumUsers()) {
      snapshot = reuse->PoolFind(owner, version, actions);
    }
    if (snapshot == nullptr) {
      snapshot = std::make_shared<const Profile>(
          owner, std::move(actions), version, digest_bits,
          reuse != nullptr && owner < reuse->NumUsers() ? reuse->ArenaOf(owner)
                                                        : nullptr);
    }
    table.profiles_.push_back(std::move(snapshot));
  }
  in->Sentinel("profile pool");
  return table;
}

const ProfilePtr& ProfileTable::Get(std::uint32_t id) const {
  if (id == kNullProfileRef) return null_;
  if (id >= profiles_.size()) {
    throw CheckpointError("corrupt checkpoint: profile reference " +
                          std::to_string(id) + " out of range (pool has " +
                          Plural(profiles_.size(), "entry") + ")");
  }
  return profiles_[id];
}

// ---------------------------------------------------------------------------
// File framing
// ---------------------------------------------------------------------------

void WriteCheckpointFile(const std::string& path,
                         const CheckpointWriter& payload) {
  const std::vector<std::uint8_t>& body = payload.buffer();
  CheckpointWriter header;
  for (const unsigned char c : kCheckpointMagic) header.U8(c);
  header.U32(kCheckpointVersion);
  header.U32(Crc32(body.data(), body.size()));

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw CheckpointError("cannot open checkpoint file for writing: " + path);
  }
  const auto write_all = [f](const std::vector<std::uint8_t>& bytes) {
    return bytes.empty() ||
           std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  };
  const bool written = write_all(header.buffer()) && write_all(body);
  const bool closed = std::fclose(f) == 0;
  if (!written || !closed) {
    throw CheckpointError("short write to checkpoint file: " + path);
  }
}

std::vector<std::uint8_t> ReadCheckpointPayload(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw CheckpointError("cannot open checkpoint file: " + path);
  }
  // Sized from the file, so the buffer is allocated once.
  std::vector<std::uint8_t> bytes;
  std::error_code size_error;
  const std::uintmax_t file_size = std::filesystem::file_size(path, size_error);
  if (!size_error) bytes.reserve(static_cast<std::size_t>(file_size));
  std::uint8_t chunk[65536];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    throw CheckpointError("error reading checkpoint file: " + path);
  }

  constexpr std::size_t kHeaderSize = sizeof(kCheckpointMagic) + 4 + 4;
  if (bytes.size() < kHeaderSize) {
    throw CheckpointError("not a P3Q checkpoint (file is only " +
                          Plural(bytes.size(), "byte") + "): " + path);
  }
  if (std::memcmp(bytes.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
      0) {
    throw CheckpointError("not a P3Q checkpoint (bad magic): " + path);
  }
  CheckpointReader header(bytes.data() + sizeof(kCheckpointMagic), 8);
  const std::uint32_t version = header.U32();
  if (version != kCheckpointVersion) {
    throw CheckpointError(
        "unsupported checkpoint version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kCheckpointVersion) +
        "): " + path);
  }
  const std::uint32_t stored_crc = header.U32();
  const std::uint32_t actual_crc =
      Crc32(bytes.data() + kHeaderSize, bytes.size() - kHeaderSize);
  if (stored_crc != actual_crc) {
    throw CheckpointError("corrupt checkpoint: checksum mismatch in " + path);
  }
  // The payload moves to the front in place rather than into a copy.
  bytes.erase(bytes.begin(), bytes.begin() + kHeaderSize);
  return bytes;
}

}  // namespace p3q
