// Unit tests for bloom/: digest filter semantics and error rates.
#include <gtest/gtest.h>

#include "bloom/bloom_filter.h"
#include "common/random.h"
#include "common/types.h"

namespace p3q {
namespace {

TEST(BloomFilterTest, EmptyFilterContainsNothing) {
  BloomFilter f(1024, 5);
  EXPECT_FALSE(f.MayContain(42));
  EXPECT_EQ(f.CountOnes(), 0u);
  EXPECT_DOUBLE_EQ(f.FillRatio(), 0.0);
}

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter f(4096, 7);
  for (std::uint64_t k = 0; k < 200; ++k) f.Insert(k * 977 + 13);
  for (std::uint64_t k = 0; k < 200; ++k) EXPECT_TRUE(f.MayContain(k * 977 + 13));
}

// Property sweep: no false negatives across filter geometries.
class BloomGeometry : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BloomGeometry, NeverForgetsInsertedKeys) {
  const auto [bits, hashes] = GetParam();
  BloomFilter f(static_cast<std::size_t>(bits), hashes);
  Rng rng(bits * 131 + hashes);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 500; ++i) keys.push_back(rng());
  for (auto k : keys) f.Insert(k);
  for (auto k : keys) EXPECT_TRUE(f.MayContain(k));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BloomGeometry,
    ::testing::Values(std::pair{64, 1}, std::pair{512, 3}, std::pair{4096, 5},
                      std::pair{20480, 10}, std::pair{65536, 13}));

TEST(BloomFilterTest, PaperGeometryFalsePositiveRate) {
  // The paper's digest is 20 Kbit. At the 99th-percentile profile (2000
  // items) that is ~10 bits/key -> FPP just under 1%; at the *average*
  // profile (249 items) the FPP is negligible. Verify both operating points
  // and that EstimatedFpp tracks the empirical rate.
  BloomFilter big(20 * 1024, 10);
  Rng rng(4242);
  for (int i = 0; i < 2000; ++i) big.Insert(rng());
  int fp = 0;
  const int probes = 200000;
  for (int i = 0; i < probes; ++i) fp += big.MayContain(rng()) ? 1 : 0;
  const double rate = static_cast<double>(fp) / probes;
  EXPECT_LT(rate, 0.02);
  EXPECT_NEAR(big.EstimatedFpp(), rate, 0.004);

  BloomFilter avg(20 * 1024, 10);
  for (int i = 0; i < 249; ++i) avg.Insert(rng());
  int fp_avg = 0;
  for (int i = 0; i < probes; ++i) fp_avg += avg.MayContain(rng()) ? 1 : 0;
  EXPECT_LT(static_cast<double>(fp_avg) / probes, 0.0001);
}

TEST(BloomFilterTest, FillRatioGrowsWithInsertions) {
  BloomFilter f(2048, 5);
  double last = 0;
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 50; ++i) f.Insert(batch * 1000 + i);
    EXPECT_GT(f.FillRatio(), last);
    last = f.FillRatio();
  }
  EXPECT_LE(f.FillRatio(), 1.0);
}

TEST(BloomFilterTest, BitsRoundedToWords) {
  BloomFilter f(100, 3);
  EXPECT_EQ(f.num_bits() % 64, 0u);
  EXPECT_GE(f.num_bits(), 100u);
}

TEST(BloomFilterTest, SizeBytesMatchesPaperDigest) {
  BloomFilter f(kDefaultDigestBits, 10);
  EXPECT_EQ(f.SizeBytes(), 2560u);  // 20 Kbit = 2560 B (20*1024/8)
}

TEST(MakeItemDigestTest, ContainsExactlyTheItems) {
  std::vector<ActionKey> actions = {
      MakeAction(5, 1), MakeAction(5, 2), MakeAction(9, 1), MakeAction(12, 7)};
  const BloomFilter digest = MakeItemDigest(actions, 4096, 5);
  EXPECT_TRUE(digest.MayContain(5));
  EXPECT_TRUE(digest.MayContain(9));
  EXPECT_TRUE(digest.MayContain(12));
  // Items are inserted once per distinct item: 3 items with 5 hashes each
  // set at most 15 bits.
  EXPECT_LE(digest.CountOnes(), 15u);
}

TEST(MakeItemDigestTest, EmptyProfileGivesEmptyDigest) {
  const BloomFilter digest = MakeItemDigest({}, 1024, 4);
  EXPECT_EQ(digest.CountOnes(), 0u);
}

}  // namespace
}  // namespace p3q
