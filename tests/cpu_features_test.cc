// Unit tests for runtime CPU detection (common/cpu_features.h) and the
// SIMD lane dispatch contract (profile/score_kernel_simd.h): the active
// lane is the widest one the host can run, and a request for a lane the
// host cannot run clamps to scalar instead of faulting later.
#include "common/cpu_features.h"

#include <algorithm>
#include <string>

#include "profile/score_kernel_simd.h"

#include "gtest/gtest.h"

namespace p3q {
namespace {

TEST(CpuFeaturesTest, DetectionIsInternallyConsistent) {
  const CpuFeatures& f = HostCpuFeatures();
  // Usability can never exceed what CPUID + XCR0 jointly advertise.
  if (f.Avx2Usable()) {
    EXPECT_TRUE(f.avx2);
    EXPECT_TRUE(f.os_ymm);
  }
#ifdef P3Q_SCORE_KERNEL_SIMD_X86
  // This binary only builds its x86 lanes on x86-64, where POPCNT shipped
  // long before AVX2.
  if (f.avx2) {
    EXPECT_TRUE(f.popcnt);
  }
#endif
}

TEST(CpuFeaturesTest, ToStringNamesEveryDetectedFlag) {
  const CpuFeatures& f = HostCpuFeatures();
  const std::string s = CpuFeaturesToString(f);
  EXPECT_FALSE(s.empty());
  if (f.avx2) {
    EXPECT_NE(s.find("avx2"), std::string::npos);
  }
  if (f.os_ymm) {
    EXPECT_NE(s.find("ymm"), std::string::npos);
  }
}

TEST(SimdDispatchTest, ScalarLaneIsAlwaysAvailable) {
  EXPECT_TRUE(SimdLaneCompiled(SimdLane::kScalar));
  EXPECT_TRUE(SimdLaneUsable(SimdLane::kScalar));
  const std::vector<SimdLane> lanes = UsableSimdLanes();
  ASSERT_FALSE(lanes.empty());
  EXPECT_EQ(lanes.front(), SimdLane::kScalar);
  // Usability is detection-gated, never broader than compiled support.
  for (const SimdLane lane : lanes) {
    EXPECT_TRUE(SimdLaneCompiled(lane));
  }
  EXPECT_EQ(SimdLaneUsable(SimdLane::kAvx2), HostCpuFeatures().Avx2Usable() &&
                                                 SimdLaneCompiled(
                                                     SimdLane::kAvx2));
}

TEST(SimdDispatchTest, LaneNamesAreStable) {
  EXPECT_STREQ(SimdLaneName(SimdLane::kScalar), "scalar");
  EXPECT_STREQ(SimdLaneName(SimdLane::kAvx2), "avx2");
}

TEST(SimdDispatchTest, ActiveLaneIsTheWidestUsable) {
  // Every test that sets a lane restores it, so the active lane here is
  // the detected default.
  EXPECT_EQ(ActiveSimdLane(), UsableSimdLanes().back());
}

TEST(SimdDispatchTest, SetSimdLaneClampsUnusableToScalarAndRestores) {
  const SimdLane original = ActiveSimdLane();
  // Setting every usable lane round-trips through ActiveSimdLane().
  for (const SimdLane lane : UsableSimdLanes()) {
    SetSimdLane(lane);
    EXPECT_EQ(ActiveSimdLane(), lane);
  }
  // An unusable lane request clamps to scalar instead of faulting later.
  // A value past the last enumerator is a lane no binary can run, so the
  // clamp is exercised on every host.
  for (const SimdLane lane : {SimdLane::kAvx2, static_cast<SimdLane>(2)}) {
    if (SimdLaneUsable(lane)) continue;
    SetSimdLane(lane);
    EXPECT_EQ(ActiveSimdLane(), SimdLane::kScalar) << SimdLaneName(lane);
  }
  SetSimdLane(original);
  EXPECT_EQ(ActiveSimdLane(), original);
}

}  // namespace
}  // namespace p3q
