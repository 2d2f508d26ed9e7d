// Runtime CPU feature detection for the SIMD-dispatched kernels.
//
// The scoring kernel (profile/score_kernel_simd.h) selects its widest usable
// lane once at startup; this module answers "what can this CPU — and this
// OS — actually run". Detection is CPUID-based (leaf 1 for POPCNT/AVX/
// OSXSAVE, leaf 7 for AVX2/BMI2) and cross-checked against XCR0 via XGETBV,
// because a CPU advertising AVX2 is useless when the kernel has not enabled
// YMM state saving. On non-x86 builds every flag is false and the scalar
// lane is the only one offered.
#ifndef P3Q_COMMON_CPU_FEATURES_H_
#define P3Q_COMMON_CPU_FEATURES_H_

#include <string>

namespace p3q {

/// CPUID-derived capability flags, plus the OS-enabled register state.
struct CpuFeatures {
  // Instruction-set flags (CPUID).
  bool popcnt = false;
  bool avx = false;
  bool avx2 = false;
  bool bmi2 = false;
  // OS state-saving flag (XGETBV/XCR0): without it the YMM registers fault
  // even when CPUID advertises the instructions.
  bool os_ymm = false;

  /// True when 256-bit AVX2 code can actually execute here.
  bool Avx2Usable() const { return avx2 && os_ymm; }
};

/// The host CPU's features, detected once and cached.
const CpuFeatures& HostCpuFeatures();

/// Human-readable one-line summary, e.g. "popcnt avx avx2 bmi2 os[ymm]" —
/// what bench headers print so recorded numbers are attributable to
/// hardware.
std::string CpuFeaturesToString(const CpuFeatures& features);

}  // namespace p3q

#endif  // P3Q_COMMON_CPU_FEATURES_H_
