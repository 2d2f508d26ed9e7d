// Deterministic pseudo-random generation for simulations.
//
// All stochastic behaviour in the simulator flows through Rng so that every
// experiment is reproducible from a single seed. The generator is
// xoshiro256** seeded via SplitMix64 (public-domain algorithms by Blackman &
// Vigna), which is much faster than std::mt19937_64 and has no measurable
// bias for our use cases.
#ifndef P3Q_COMMON_RANDOM_H_
#define P3Q_COMMON_RANDOM_H_

#include <array>
#include <cstdint>
#include <vector>

namespace p3q {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
std::uint64_t SplitMix64(std::uint64_t* state);

/// Deterministic random number generator (xoshiro256**).
///
/// Satisfies UniformRandomBitGenerator so it can be handed to <random>
/// distributions, but the common draws (integers, doubles, Bernoulli,
/// Poisson, shuffles, samples) are provided as members.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Creates a generator from a 64-bit seed. Two Rng with the same seed
  /// produce identical streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit draw.
  result_type operator()();

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t NextUint64(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t NextInt(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli draw with success probability p.
  bool NextBool(double p);

  /// Poisson-distributed integer with mean lambda (Knuth for small lambda,
  /// normal approximation above 64). A draw past INT_MAX saturates there
  /// (the approximation's draw is at most lambda + 37.2 * sqrt(lambda) +
  /// 0.5, so only lambda above about 2.1e9 can reach it); a draw that is
  /// not a number (a NaN lambda) returns 0.
  int NextPoisson(double lambda);

  /// Binomial(n, p) draw (exact Bernoulli loop for small n, normal
  /// approximation with continuity correction otherwise).
  int NextBinomial(int n, double p);

  /// Fisher-Yates shuffle of the whole vector.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(NextUint64(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Reservoir-samples k elements from v without replacement. Returns fewer
  /// if v.size() < k. Order of the sample is unspecified. The sample uses
  /// v's allocator, so a std::pmr vector samples into its own resource.
  template <typename T, typename Alloc>
  std::vector<T, Alloc> SampleWithoutReplacement(const std::vector<T, Alloc>& v,
                                                 std::size_t k) {
    std::vector<T, Alloc> out(v.get_allocator());
    if (v.empty() || k == 0) return out;
    out.reserve(k < v.size() ? k : v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (out.size() < k) {
        out.push_back(v[i]);
      } else {
        std::size_t j = static_cast<std::size_t>(NextUint64(i + 1));
        if (j < k) out[j] = v[i];
      }
    }
    return out;
  }

  /// Forks an independent generator; the child stream is decorrelated from
  /// the parent via SplitMix64 remixing. Used to give every simulated node
  /// its own stream while staying reproducible.
  Rng Fork();

  /// Full generator state (the four xoshiro256** words), for checkpointing.
  std::array<std::uint64_t, 4> State() const { return {s_[0], s_[1], s_[2], s_[3]}; }

  /// Restores a state previously captured with State().
  void SetState(const std::array<std::uint64_t, 4>& state) {
    for (int i = 0; i < 4; ++i) s_[i] = state[i];
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace p3q

#endif  // P3Q_COMMON_RANDOM_H_
