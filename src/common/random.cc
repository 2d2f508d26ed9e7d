#include "common/random.h"

#include <cmath>
#include <limits>

namespace p3q {
namespace {

inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::NextUint64(std::uint64_t bound) {
  // Lemire's nearly-divisionless bounded draw with rejection to remove bias.
  __uint128_t m = static_cast<__uint128_t>((*this)()) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      m = static_cast<__uint128_t>((*this)()) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::NextInt(std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  NextUint64(static_cast<std::uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

int Rng::NextPoisson(double lambda) {
  if (lambda <= 0) return 0;
  if (lambda < 64) {
    // Knuth's multiplication method.
    const double limit = std::exp(-lambda);
    double prod = NextDouble();
    int n = 0;
    while (prod > limit) {
      prod *= NextDouble();
      ++n;
    }
    return n;
  }
  // Normal approximation with continuity correction for large lambda.
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 <= 0) u1 = 1e-300;
  const double z =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  const double value = lambda + std::sqrt(lambda) * z + 0.5;
  // Casting a value outside int's range is undefined behaviour; the
  // negated test also catches NaN.
  if (!(value >= 0)) return 0;
  if (value >= static_cast<double>(std::numeric_limits<int>::max())) {
    return std::numeric_limits<int>::max();
  }
  return static_cast<int>(value);
}

int Rng::NextBinomial(int n, double p) {
  if (n <= 0 || p <= 0) return 0;
  if (p >= 1) return n;
  if (n <= 32) {
    int hits = 0;
    for (int i = 0; i < n; ++i) hits += NextBool(p) ? 1 : 0;
    return hits;
  }
  const double mean = n * p;
  const double stddev = std::sqrt(mean * (1.0 - p));
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 <= 0) u1 = 1e-300;
  const double z =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  const double value = mean + stddev * z + 0.5;
  if (value < 0) return 0;
  if (value > n) return n;
  return static_cast<int>(value);
}

Rng Rng::Fork() {
  std::uint64_t seed = (*this)();
  return Rng(seed);
}

}  // namespace p3q
