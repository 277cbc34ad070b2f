// The SIMD tiers a tier test walks: every level this host's CPU and OS
// run, narrowest (scalar) first. Tests force each one in turn through
// util::ForceSimdForTest and check it against the scalar loops, so every
// vector body this host can execute is pinned, whichever tier dispatch
// would pick by default.
#pragma once

#include <vector>

#include "util/simd.h"

namespace osap::testing {

inline std::vector<util::SimdLevel> AvailableSimdLevels() {
  std::vector<util::SimdLevel> levels;
  for (int l = 0; l <= static_cast<int>(util::CpuSimdLevel()); ++l) {
    levels.push_back(static_cast<util::SimdLevel>(l));
  }
  return levels;
}

inline const char* SimdLevelName(util::SimdLevel level) {
  switch (level) {
    case util::SimdLevel::kScalar:
      return "scalar";
    case util::SimdLevel::kAvx2:
      return "avx2";
    case util::SimdLevel::kAvx512:
      return "avx512";
  }
  return "?";
}

}  // namespace osap::testing
