#include "util/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <cpuid.h>
#endif

namespace osap::util {

namespace {

// -1: follow environment/CPU; otherwise the forced SimdLevel.
std::atomic<int> g_force{-1};

SimdLevel DetectCpu() {
#if defined(__x86_64__) && defined(__GNUC__)
  // The instructions are only usable if the OS saves their registers on
  // a context switch: XCR0 must enable the SSE and AVX (YMM) state for
  // AVX2, and additionally the opmask, ZMM_Hi256 and Hi16_ZMM state for
  // AVX-512.
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 ||
      (ecx & bit_OSXSAVE) == 0) {
    return SimdLevel::kScalar;
  }
  unsigned xcr0 = 0, xcr0_high = 0;
  __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_high) : "c"(0));
  constexpr unsigned kYmmState = 0x6;
  constexpr unsigned kZmmState = 0xe6;
  if ((xcr0 & kYmmState) != kYmmState || !__builtin_cpu_supports("avx2")) {
    return SimdLevel::kScalar;
  }
  if ((xcr0 & kZmmState) != kZmmState || !__builtin_cpu_supports("avx512f")) {
    return SimdLevel::kAvx2;
  }
  return SimdLevel::kAvx512;
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel DispatchDefault() {
  const char* env = std::getenv("OSAP_NO_AVX2");
  if (env != nullptr && std::strcmp(env, "0") != 0 && env[0] != '\0') {
    return SimdLevel::kScalar;
  }
  return CpuSimdLevel();
}

}  // namespace

SimdLevel CpuSimdLevel() {
  static const SimdLevel level = DetectCpu();
  return level;
}

SimdLevel ActiveSimdLevel() {
  const int force = g_force.load(std::memory_order_relaxed);
  if (force >= 0) {
    return std::min(static_cast<SimdLevel>(force), CpuSimdLevel());
  }
  static const SimdLevel level = DispatchDefault();
  return level;
}

void ForceSimdForTest(SimdLevel level) {
  g_force.store(static_cast<int>(level), std::memory_order_relaxed);
}

void ResetSimdForTest() { g_force.store(-1, std::memory_order_relaxed); }

}  // namespace osap::util
