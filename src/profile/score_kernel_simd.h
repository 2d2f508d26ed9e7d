// SIMD lane for the similarity-scoring kernel, with runtime CPU dispatch.
//
// The portable kernels in score_kernel.h are already flat base-vs-many
// sweeps over contiguous 64-bit blocks — exactly the shape vector units
// want. This module provides an AVX2 implementation of the hottest loop,
// the batched base-vs-many sweep behind KernelPairSimilarityBatch: the
// base's item blocks are scattered once per batch into a dense
// [min_block, max_block] table, then every candidate's blocks are
// range-checked, gathered and AND-ed four at a time; only blocks with a
// non-empty intersection fall out to the exact accumulation.
//
// The active lane is the widest one the CPU *and* OS support
// (common/cpu_features.h), detected once at first use. The lane returns
// bit-for-bit the counts of the scalar path, so reports and goldens are
// byte-identical no matter which lane scored a pair;
// tests/score_kernel_test.cc runs the differential suites against every
// usable lane to keep that non-negotiable.
#ifndef P3Q_PROFILE_SCORE_KERNEL_SIMD_H_
#define P3Q_PROFILE_SCORE_KERNEL_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace p3q {

class Profile;
struct PairSimilarity;

/// The kernel implementations this binary can dispatch between, widest
/// last. kScalar is always compiled and always correct; the AVX2 lane
/// exists only on x86-64 builds and is selected only when the host can run
/// it.
enum class SimdLane : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// Lane name ("scalar", "avx2"), as the lane-parameterized tests and the
/// per-lane bench legs label their instances.
const char* SimdLaneName(SimdLane lane);

/// True when the lane's code is compiled into this binary.
bool SimdLaneCompiled(SimdLane lane);

/// True when the lane is compiled in AND the host CPU + OS can execute it.
bool SimdLaneUsable(SimdLane lane);

/// All usable lanes, ascending (always starts with kScalar). What the
/// lane-parameterized test suites and per-lane bench legs iterate over.
std::vector<SimdLane> UsableSimdLanes();

/// The currently selected lane: the widest usable one, detected on first use
/// and cached unless SetSimdLane replaced it. The batched kernel reads this
/// per batch (one relaxed atomic load).
SimdLane ActiveSimdLane();

/// Replaces the active lane and returns the previous one. An unusable lane
/// is clamped to scalar. Used by the per-lane bench legs and the
/// lane-parameterized tests; thread-safe, but callers flip it only at
/// startup or around single-threaded test sections.
SimdLane SetSimdLane(SimdLane lane);

#if defined(__x86_64__) || defined(_M_X64)
#define P3Q_SCORE_KERNEL_SIMD_X86 1

/// AVX2 batched base-vs-many sweep. Returns false — leaving `out`
/// untouched — when the base's block range is too sparse for the dense
/// gather table (the caller then runs the portable hash path). Exact; only
/// call when SimdLaneUsable(kAvx2).
bool Avx2PairSimilarityBatch(const Profile& base,
                             const Profile* const* candidates, std::size_t n,
                             PairSimilarity* out);
#endif  // x86-64

/// Dense-table shape gate of the AVX2 sweep: the base's item-block span
/// must fit kMaxDenseSpan and not exceed kDenseSpanFactor blocks per present
/// block, or the sweep refuses and the hash path runs. Exposed so tests can
/// construct shapes on both sides of the gate.
inline constexpr std::uint64_t kMaxDenseSpan = 4096;
inline constexpr std::uint64_t kDenseSpanFactor = 32;

}  // namespace p3q

#endif  // P3Q_PROFILE_SCORE_KERNEL_SIMD_H_
