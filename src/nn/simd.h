// Runtime SIMD dispatch for the vectorized nn kernels (the batched
// ensemble inference path and the Matrix backward kernels).
//
// The actual dispatch logic lives in util/simd.h so that non-nn
// subsystems (the svm batched OC-SVM decision scan) can share the same
// CPU check, OSAP_NO_AVX2 escape hatch, and test override without a
// layering violation; this header re-exports the names into osap::nn for
// the existing nn call sites. See util/simd.h for the contract.
#pragma once

#include "util/simd.h"

namespace osap::nn {

using util::ActiveSimdLevel;
using util::CpuSimdLevel;
using util::ForceSimdForTest;
using util::ResetSimdForTest;
using util::SimdLevel;
using util::UseAvx2;

}  // namespace osap::nn
