// Runtime SIMD dispatch shared by every vectorized kernel in the tree:
// the nn batched-inference / backward kernels and the svm batched OC-SVM
// decision scan. It lives in util so that svm (which, per the CMake
// layering, must not depend on nn) can share one dispatch decision with
// the nn kernels.
//
// The tiers form a ladder, narrowest first: scalar, AVX2 (4 doubles per
// vector), AVX-512F (8 doubles per vector). A kernel runs the widest tier
// it has at or below ActiveSimdLevel(); only the single-state ensemble
// kernels have an AVX-512 body, the others stop at AVX2. Every vector
// kernel in this codebase is bit-identical to its scalar counterpart by
// construction (no FMA - the build passes -ffp-contract=off so the
// compiler cannot fuse one either - and every output element keeps its
// own scalar accumulation chain), so the level is purely a speed
// decision:
//   - the CPU must report the tier's instructions and the OS must save
//     the registers they use (checked through XCR0), and
//   - the OSAP_NO_AVX2=1 environment variable must not be set. It
//     disables every vector tier, AVX-512 included, so CI machines with
//     wide vectors can exercise the scalar numerics, and it is the escape
//     hatch if a host ever misreports support.
// Tests can additionally force any tier in-process to prove the
// tier-to-tier equivalence without re-exec.
#pragma once

namespace osap::util {

enum class SimdLevel { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// The widest tier this CPU and OS can run, ignoring OSAP_NO_AVX2 and the
/// test hook. Tier tests loop over every level up to this one.
SimdLevel CpuSimdLevel();

/// The tier the kernels run: CpuSimdLevel(), unless OSAP_NO_AVX2=1 is in
/// the environment (kScalar) or a test override is active.
SimdLevel ActiveSimdLevel();

/// True when the AVX2 kernels should run (the AVX-512 tier includes them).
inline bool UseAvx2() { return ActiveSimdLevel() >= SimdLevel::kAvx2; }

/// Test hook: forces dispatch to `level`. A level above CpuSimdLevel()
/// yields CpuSimdLevel() (running its kernels would fault). Not
/// thread-safe against concurrent kernel launches; intended for
/// single-threaded equivalence tests.
void ForceSimdForTest(SimdLevel level);

/// Restores environment/CPU-based dispatch after ForceSimdForTest.
void ResetSimdForTest();

}  // namespace osap::util
