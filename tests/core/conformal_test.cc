// Streaming conformal calibration: the online arm must keep coverage
// (checked empirically on synthetic regime-switch streams) after a regime
// switch that strands a frozen offline threshold.
#include "core/conformal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.h"

namespace osap::core {
namespace {

/// Feeds `count` draws of `gen` into the calibrator, refreshing the
/// threshold every `refresh` observations (the epoch-boundary cadence),
/// and returns the fraction that exceeded the then-live threshold.
template <typename Gen>
double StreamRegime(StreamingConformal& conformal, Gen gen,
                    std::size_t count, std::size_t refresh) {
  const std::size_t before_obs = conformal.Observations();
  const std::size_t before_exc = conformal.Exceedances();
  for (std::size_t i = 0; i < count; ++i) {
    conformal.Observe(gen());
    if ((i + 1) % refresh == 0) conformal.RefreshAlpha();
  }
  return static_cast<double>(conformal.Exceedances() - before_exc) /
         static_cast<double>(conformal.Observations() - before_obs);
}

TEST(StreamingConformal, CoverageWithinBoundsBeforeAndAfterRegimeSwitch) {
  // Regime A: variance statistics ~ Uniform(0, 1). Regime B: the
  // distribution shifts up 5x (drift the frozen threshold cannot see).
  // In both regimes, once warmed up, the ONLINE arm's exceedance rate
  // must track the 10% target within finite-sample noise.
  Rng rng(123);
  const double epsilon = 0.10;
  const std::size_t window = 512;
  const std::size_t refresh = 64;
  StreamingConformal conformal(epsilon, window, /*initial_alpha=*/0.0);

  // Warm-up in regime A (discarded: the initial threshold is 0, so
  // every early observation "exceeds" until the sketch fills).
  StreamRegime(conformal, [&] { return rng.Uniform(); }, 2 * window,
               refresh);
  const double in_regime_a = StreamRegime(
      conformal, [&] { return rng.Uniform(); }, 4000, refresh);
  EXPECT_NEAR(in_regime_a, epsilon, 0.03);

  // Switch. Give the windowed sketch 2*window observations to rotate
  // the old regime out, then measure steady-state coverage in B.
  StreamRegime(conformal, [&] { return 5.0 * rng.Uniform(); }, 2 * window,
               refresh);
  const double in_regime_b = StreamRegime(
      conformal, [&] { return 5.0 * rng.Uniform(); }, 4000, refresh);
  EXPECT_NEAR(in_regime_b, epsilon, 0.03);
  // The live threshold followed the scale change.
  EXPECT_GT(conformal.Alpha(), 3.0);
  EXPECT_LT(conformal.Alpha(), 5.0);
}

TEST(StreamingConformal, FrozenOfflineThresholdDegradesAfterTheSwitch) {
  // The pinned comparison the online arm exists for: a threshold
  // conformally calibrated OFFLINE on regime A holds coverage on fresh
  // regime-A data but mis-covers regime B by an order of magnitude,
  // while the streaming arm re-covers after its rotation warm-up.
  Rng rng(321);
  const double epsilon = 0.10;
  std::vector<double> calibration;
  for (std::size_t i = 0; i < 499; ++i) {
    calibration.push_back(rng.Uniform());
  }
  // The split-conformal offline threshold: the ceil((n+1)(1-epsilon))
  // order statistic of the calibration scores.
  std::sort(calibration.begin(), calibration.end());
  const auto rank = static_cast<std::size_t>(std::ceil(
      static_cast<double>(calibration.size() + 1) * (1.0 - epsilon)));
  const double frozen = calibration[rank - 1];

  std::size_t frozen_exceed_a = 0;
  std::size_t frozen_exceed_b = 0;
  const std::size_t m = 5000;
  for (std::size_t i = 0; i < m; ++i) {
    if (rng.Uniform() > frozen) ++frozen_exceed_a;
    if (5.0 * rng.Uniform() > frozen) ++frozen_exceed_b;
  }
  const double frozen_rate_a = static_cast<double>(frozen_exceed_a) / m;
  const double frozen_rate_b = static_cast<double>(frozen_exceed_b) / m;
  EXPECT_NEAR(frozen_rate_a, epsilon, 0.03);  // still covered in-regime
  EXPECT_GT(frozen_rate_b, 0.75);             // collapsed after the switch

  // Streaming arm on the same post-switch stream: back within bounds.
  StreamingConformal conformal(epsilon, 512, frozen);
  StreamRegime(conformal, [&] { return 5.0 * rng.Uniform(); }, 1024, 64);
  const double streaming_rate_b = StreamRegime(
      conformal, [&] { return 5.0 * rng.Uniform(); }, 4000, 64);
  EXPECT_NEAR(streaming_rate_b, epsilon, 0.03);
  EXPECT_LT(streaming_rate_b, frozen_rate_b / 5.0);
}

}  // namespace
}  // namespace osap::core
