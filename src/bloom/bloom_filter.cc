#include "bloom/bloom_filter.h"

#include <bit>
#include <cmath>

namespace p3q {
namespace {

// 64-bit finalizer from MurmurHash3; a strong mixer for integral keys.
inline std::uint64_t Mix64(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

}  // namespace

BloomFilter::BloomFilter(std::size_t num_bits, int num_hashes)
    : num_bits_((num_bits + 63) / 64 * 64),
      num_hashes_(num_hashes < 1 ? 1 : num_hashes),
      words_(num_bits_ / 64, 0) {}

void BloomFilter::Probe(std::uint64_t key, std::uint64_t* h1,
                        std::uint64_t* h2) const {
  *h1 = Mix64(key);
  *h2 = Mix64(key ^ 0x9e3779b97f4a7c15ULL) | 1;  // odd => full period
}

void BloomFilter::Insert(std::uint64_t key) {
  std::uint64_t h1, h2;
  Probe(key, &h1, &h2);
  for (int i = 0; i < num_hashes_; ++i) {
    const std::size_t bit = static_cast<std::size_t>(h1 % num_bits_);
    words_[bit / 64] |= (1ULL << (bit % 64));
    h1 += h2;
  }
}

bool BloomFilter::MayContain(std::uint64_t key) const {
  std::uint64_t h1, h2;
  Probe(key, &h1, &h2);
  for (int i = 0; i < num_hashes_; ++i) {
    const std::size_t bit = static_cast<std::size_t>(h1 % num_bits_);
    if ((words_[bit / 64] & (1ULL << (bit % 64))) == 0) return false;
    h1 += h2;
  }
  return true;
}

std::size_t BloomFilter::CountOnes() const {
  std::size_t ones = 0;
  for (auto w : words_) ones += static_cast<std::size_t>(std::popcount(w));
  return ones;
}

double BloomFilter::FillRatio() const {
  return static_cast<double>(CountOnes()) / static_cast<double>(num_bits_);
}

double BloomFilter::EstimatedFpp() const {
  return std::pow(FillRatio(), num_hashes_);
}

BloomFilter MakeItemDigest(const std::vector<ActionKey>& actions,
                           std::size_t num_bits, int num_hashes) {
  BloomFilter filter(num_bits, num_hashes);
  ItemId last = kInvalidItem;
  for (ActionKey a : actions) {
    const ItemId item = ActionItem(a);
    if (item != last) {  // actions are sorted, so same-item runs are adjacent
      filter.Insert(item);
      last = item;
    }
  }
  return filter;
}

}  // namespace p3q
