#include "common/cpu_features.h"

#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#define P3Q_CPU_FEATURES_X86 1
#include <cpuid.h>
#endif

namespace p3q {
namespace {

#ifdef P3Q_CPU_FEATURES_X86
/// XGETBV(0) — XCR0, the OS-enabled register-state mask. Encoded as raw
/// bytes so no -mxsave compile flag is needed; the instruction is only
/// executed after CPUID reports OSXSAVE.
std::uint64_t ReadXcr0() {
  std::uint32_t eax, edx;
  __asm__ volatile(".byte 0x0f, 0x01, 0xd0" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<std::uint64_t>(edx) << 32) | eax;
}
#endif

CpuFeatures Detect() {
  CpuFeatures f;
#ifdef P3Q_CPU_FEATURES_X86
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return f;
  f.popcnt = (ecx & bit_POPCNT) != 0;
  f.avx = (ecx & bit_AVX) != 0;
  const bool osxsave = (ecx & bit_OSXSAVE) != 0;

  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    f.avx2 = (ebx & bit_AVX2) != 0;
    f.bmi2 = (ebx & bit_BMI2) != 0;
  }

  if (osxsave) {
    const std::uint64_t xcr0 = ReadXcr0();
    // Bits 1|2: XMM + YMM state.
    f.os_ymm = (xcr0 & 0x6) == 0x6;
  }
#endif
  return f;
}

void Append(std::string* out, const char* name, bool present) {
  if (!present) return;
  if (!out->empty()) out->push_back(' ');
  out->append(name);
}

}  // namespace

const CpuFeatures& HostCpuFeatures() {
  static const CpuFeatures features = Detect();
  return features;
}

std::string CpuFeaturesToString(const CpuFeatures& f) {
  std::string out;
  Append(&out, "popcnt", f.popcnt);
  Append(&out, "avx", f.avx);
  Append(&out, "avx2", f.avx2);
  Append(&out, "bmi2", f.bmi2);
  if (out.empty()) out = "none";
  out.append(" os[");
  out.append(f.os_ymm ? "ymm" : "-");
  out.push_back(']');
  return out;
}

}  // namespace p3q
