// Bloom-filter profile digests (Section 2.1 of the paper).
//
// P3Q never ships a full profile before a cheap screen: each personal-network
// and random-view entry carries a Bloom filter over the *items* the user
// tagged ("the digest ... only contains the items tagged by each user"). Two
// users whose digests share no item cannot be neighbours, so the lazy-mode
// 3-step exchange drops them after step one. The paper sizes the digest at
// 20 Kbit for a ~0.1% false-positive rate on profiles of up to ~2000 items.
#ifndef P3Q_BLOOM_BLOOM_FILTER_H_
#define P3Q_BLOOM_BLOOM_FILTER_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace p3q {

/// Fixed-size Bloom filter over 64-bit keys with double hashing.
///
/// Double hashing (Kirsch & Mitzenmacher, "Less hashing, same performance")
/// derives the k probe positions from two independent 64-bit hashes, which
/// matches what production filters (e.g. RocksDB block-based filters) do.
class BloomFilter {
 public:
  /// Creates an empty filter of num_bits bits with num_hashes probes. Bits
  /// are rounded up to a multiple of 64.
  explicit BloomFilter(std::size_t num_bits = kDefaultDigestBits,
                       int num_hashes = 10);

  /// Inserts a key.
  void Insert(std::uint64_t key);

  /// Returns true when the key may be present (false positives possible,
  /// false negatives impossible).
  bool MayContain(std::uint64_t key) const;

  /// Number of bits set to one.
  std::size_t CountOnes() const;

  /// Fraction of set bits (filter load).
  double FillRatio() const;

  /// Expected false-positive probability at the current load:
  /// (ones/m)^k.
  double EstimatedFpp() const;

  std::size_t num_bits() const { return num_bits_; }
  int num_hashes() const { return num_hashes_; }

  /// Wire size in bytes (the paper accounts 2500 B for a 20 Kbit digest).
  std::size_t SizeBytes() const { return num_bits_ / 8; }

 private:
  void Probe(std::uint64_t key, std::uint64_t* h1, std::uint64_t* h2) const;

  std::size_t num_bits_;
  int num_hashes_;
  std::vector<std::uint64_t> words_;
};

/// Builds the P3Q profile digest: a Bloom filter over the item ids of the
/// given packed tagging actions (items only — tags are not in the digest).
BloomFilter MakeItemDigest(const std::vector<ActionKey>& actions,
                           std::size_t num_bits = kDefaultDigestBits,
                           int num_hashes = 10);

}  // namespace p3q

#endif  // P3Q_BLOOM_BLOOM_FILTER_H_
