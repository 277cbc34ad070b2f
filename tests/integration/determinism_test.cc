// The threading contract: every parallel section of the workbench
// (per-trace evaluation rollouts, per-member ensemble training, ND feature
// collection) must produce results bit-identical to the serial path. Two
// workbenches differing only in `threads` must agree exactly - same
// per-trace QoE, same calibrated thresholds.
#include <gtest/gtest.h>

#include "core/workbench.h"
#include "testing/full_calibration.h"

namespace osap::core {
namespace {

using traces::DatasetId;

WorkbenchConfig ConfigWithThreads(std::size_t threads) {
  WorkbenchConfig cfg = FastWorkbenchConfig();
  cfg.threads = threads;
  return cfg;
}

TEST(WorkbenchDeterminism, ParallelEvaluationBitIdenticalToSerial) {
  Workbench serial(ConfigWithThreads(1));
  Workbench parallel(ConfigWithThreads(4));
  constexpr auto kTrain = DatasetId::kGamma22;
  constexpr auto kTest = DatasetId::kExponential;

  // Calibrated thresholds come out of the full training + calibration
  // pipeline, whose ensemble training and validation rollouts both run on
  // the pool when threads > 1.
  const TrainedBundle& sb = serial.BundleFor(kTrain);
  const TrainedBundle& pb = parallel.BundleFor(kTrain);
  EXPECT_EQ(sb.alpha_pi, pb.alpha_pi);
  EXPECT_EQ(sb.alpha_v, pb.alpha_v);
  EXPECT_EQ(sb.nd_in_dist_qoe, pb.nd_in_dist_qoe);

  // Every scheme's per-trace evaluation must agree exactly, including
  // kRandom (which the workbench deliberately keeps serial).
  for (const Scheme scheme :
       {Scheme::kPensieve, Scheme::kBufferBased, Scheme::kRandom,
        Scheme::kNoveltyDetection, Scheme::kAgentEnsemble,
        Scheme::kValueEnsemble}) {
    const EvalResult& s = serial.Evaluate(scheme, kTrain, kTest);
    const EvalResult& p = parallel.Evaluate(scheme, kTrain, kTest);
    ASSERT_EQ(s.per_trace_qoe.size(), p.per_trace_qoe.size());
    for (std::size_t i = 0; i < s.per_trace_qoe.size(); ++i) {
      EXPECT_EQ(s.per_trace_qoe[i], p.per_trace_qoe[i])
          << SchemeName(scheme) << " trace " << i;
    }
  }
}

TEST(WorkbenchDeterminism, ReplayCalibrationBitIdenticalToFullReEvaluation) {
  // Record-and-replay calibration is a pure speedup: the calibrated
  // thresholds (and the ND target they chase) must match the full
  // SafeAgent-per-bisection-probe oracle exactly.
  Workbench bench(FastWorkbenchConfig());
  constexpr auto kTrain = DatasetId::kGamma22;

  const TrainedBundle& bundle = bench.BundleFor(kTrain);
  const testing::Thresholds full =
      testing::FullReEvaluationThresholds(bench, kTrain);
  EXPECT_EQ(bundle.nd_in_dist_qoe, full.nd_in_dist_qoe);
  EXPECT_EQ(bundle.alpha_pi, full.alpha_pi);
  EXPECT_EQ(bundle.alpha_v, full.alpha_v);
}

TEST(WorkbenchDeterminism, DefaultCacheKeysArePinned) {
  // Every cached bundle on disk lives under its CacheKey(); a change to
  // these literals orphans every trained cache, including the serving
  // benchmark's.
  EXPECT_EQ(Workbench(WorkbenchConfig{}).CacheKey(), "a4e935d7e0df3e84");
  EXPECT_EQ(Workbench(FastWorkbenchConfig()).CacheKey(), "6ec1e7e2c75c6603");
}

TEST(WorkbenchDeterminism, ThreadCountDoesNotChangeCacheKey) {
  // `threads` is a performance knob, not a behaviour knob: cached artifacts
  // must be shared across thread settings.
  EXPECT_EQ(Workbench(ConfigWithThreads(1)).CacheKey(),
            Workbench(ConfigWithThreads(8)).CacheKey());
}

}  // namespace
}  // namespace osap::core
