// Property-based sweeps over the tests' reference trigger (and, for the
// fail-closed case, core::SafetyObserve): for every (k, l) combination,
// the firing semantics promised by the paper's thresholding description
// must hold exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "core/safety_core.h"
#include "testing/reference_trigger.h"
#include "util/rng.h"

namespace osap::core {
namespace {

using osap::testing::DefaultTrigger;

using Params = std::tuple<std::size_t /*k*/, std::size_t /*l*/>;

class TriggerProperties : public ::testing::TestWithParam<Params> {};

TEST_P(TriggerProperties, BinaryFiresExactlyAfterLOnes) {
  const auto [k, l] = GetParam();
  TriggerConfig cfg;
  cfg.mode = TriggerMode::kBinary;
  cfg.k = k;
  cfg.l = l;
  DefaultTrigger trigger(cfg);
  for (std::size_t i = 1; i < l; ++i) {
    ASSERT_FALSE(trigger.Update(1.0)) << "fired early at " << i;
  }
  EXPECT_TRUE(trigger.Update(1.0));
}

TEST_P(TriggerProperties, AnyCertainStepDelaysFiringByExactlyItsPosition) {
  const auto [k, l] = GetParam();
  if (l < 2) GTEST_SKIP() << "needs a streak to break";
  TriggerConfig cfg;
  cfg.mode = TriggerMode::kBinary;
  cfg.k = k;
  cfg.l = l;
  DefaultTrigger trigger(cfg);
  // l-1 uncertain steps, then a certain one: streak resets to zero.
  for (std::size_t i = 0; i < l - 1; ++i) trigger.Update(1.0);
  trigger.Update(0.0);
  EXPECT_EQ(trigger.ConsecutiveUncertain(), 0u);
  // A fresh full streak is needed again.
  for (std::size_t i = 1; i < l; ++i) {
    ASSERT_FALSE(trigger.Update(1.0));
  }
  EXPECT_TRUE(trigger.Update(1.0));
}

TEST_P(TriggerProperties, VarianceModeNeverFiresDuringWarmup) {
  const auto [k, l] = GetParam();
  if (k < 2) GTEST_SKIP() << "variance mode requires k >= 2";
  TriggerConfig cfg;
  cfg.mode = TriggerMode::kWindowVariance;
  cfg.k = k;
  cfg.l = l;
  cfg.alpha = 0.0;
  DefaultTrigger trigger(cfg);
  Rng rng(k * 31 + l);
  for (std::size_t i = 0; i + 1 < k; ++i) {
    ASSERT_FALSE(trigger.Update(rng.Uniform(0.0, 100.0)))
        << "fired during warm-up at step " << i;
  }
}

TEST_P(TriggerProperties, VarianceModeConstantSignalNeverFires) {
  const auto [k, l] = GetParam();
  if (k < 2) GTEST_SKIP() << "variance mode requires k >= 2";
  TriggerConfig cfg;
  cfg.mode = TriggerMode::kWindowVariance;
  cfg.k = k;
  cfg.l = l;
  cfg.alpha = 1e-12;
  DefaultTrigger trigger(cfg);
  for (int i = 0; i < 200; ++i) {
    ASSERT_FALSE(trigger.Update(42.0));
  }
}

TEST_P(TriggerProperties, VarianceModeAlternatingSignalFiresOnceWarm) {
  const auto [k, l] = GetParam();
  if (k < 2) GTEST_SKIP() << "variance mode requires k >= 2";
  TriggerConfig cfg;
  cfg.mode = TriggerMode::kWindowVariance;
  cfg.k = k;
  cfg.l = l;
  cfg.alpha = 0.01;  // alternating 0/10 has variance 25 >> alpha
  DefaultTrigger trigger(cfg);
  bool fired = false;
  for (int i = 0; i < 200 && !fired; ++i) {
    fired = trigger.Update(i % 2 == 0 ? 0.0 : 10.0);
  }
  EXPECT_TRUE(fired);
}

TEST_P(TriggerProperties, ResetIsEquivalentToFreshTrigger) {
  const auto [k, l] = GetParam();
  TriggerConfig cfg;
  cfg.mode = TriggerMode::kWindowVariance;
  cfg.k = std::max<std::size_t>(k, 2);
  cfg.l = l;
  cfg.alpha = 0.5;
  DefaultTrigger used(cfg);
  Rng rng(7);
  for (int i = 0; i < 50; ++i) used.Update(rng.Uniform(0.0, 10.0));
  used.Reset();
  DefaultTrigger fresh(cfg);
  Rng rng_a(13);
  Rng rng_b(13);
  for (int i = 0; i < 50; ++i) {
    const double a = rng_a.Uniform(0.0, 10.0);
    const double b = rng_b.Uniform(0.0, 10.0);
    ASSERT_EQ(used.Update(a), fresh.Update(b)) << "diverged at step " << i;
  }
}

// Fail closed, and local: with inf, NaN and overflowing scores injected,
// the decision at step t depends only on scores t-k+1..t and the streak.
// A window holding a score whose square is not finite is uncertain; any
// other window is uncertain iff it is full and its variance, computed
// afresh from those k scores, exceeds alpha. The finite scores are
// quarter-integers in [0, 16), so every running sum is exact and a
// window's variance has the same bits however it is reached. Checked on
// the reference trigger and on SafetyObserve's streak alike.
TEST_P(TriggerProperties, NonFiniteScoresFailClosedAndStayLocal) {
  const auto [k, l] = GetParam();
  if (k < 2) GTEST_SKIP() << "variance mode requires k >= 2";
  SafeAgentConfig config;
  config.trigger.mode = TriggerMode::kWindowVariance;
  config.trigger.k = k;
  config.trigger.l = l;
  config.trigger.alpha = 4.0;
  DefaultTrigger trigger(config.trigger);
  SafetyState state;
  SafetyCold cold;
  std::vector<double> ring(SafetyRingDoubles(config));
  const double bad[] = {std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN(), 1e200,
                        -1.7e308};
  Rng rng(k * 131 + l);
  std::vector<double> scores;
  std::size_t streak = 0, poisoned_steps = 0, fired_steps = 0;
  for (std::size_t t = 0; t < 2000; ++t) {
    // Calm (variance < 1) and wild (variance ~ 21) stretches of 25 steps,
    // one score in 12 non-finite.
    const bool wild = (t / 25) % 2 == 1;
    double score = wild ? 0.25 * static_cast<double>(rng.UniformInt(64))
                        : 8.0 + 0.25 * static_cast<double>(rng.UniformInt(8));
    if (rng.UniformInt(12) == 0) score = bad[rng.UniformInt(5)];
    scores.push_back(score);

    const std::size_t first = t + 1 >= k ? t + 1 - k : 0;
    bool poisoned = false;
    double sum = 0.0, sum_sq = 0.0;
    for (std::size_t i = first; i <= t; ++i) {
      poisoned |= !std::isfinite(scores[i] * scores[i]);
      sum += scores[i];
      sum_sq += scores[i] * scores[i];
    }
    bool uncertain = poisoned;
    if (!poisoned && t + 1 >= k) {
      const double n = static_cast<double>(k);
      const double m = sum / n;
      uncertain = std::max(0.0, sum_sq / n - m * m) > config.trigger.alpha;
    }
    streak = uncertain ? streak + 1 : 0;
    poisoned_steps += poisoned;

    const bool fired = trigger.Update(score);
    ASSERT_EQ(trigger.ConsecutiveUncertain(), streak) << "step " << t;
    ASSERT_EQ(fired, streak >= l) << "step " << t;
    fired_steps += fired;
    const bool fallback =
        SafetyObserve(config, state, cold, ring.data(), score);
    ASSERT_EQ(state.consecutive, streak) << "SafetyObserve, step " << t;
    if (!std::isfinite(score)) {
      ASSERT_TRUE(fallback) << "a non-finite score is answered by the "
                               "default policy, step "
                            << t;
    }
  }
  EXPECT_GT(poisoned_steps, 0u);
  EXPECT_GT(fired_steps, 0u);
  EXPECT_LT(fired_steps, 2000u);
}

INSTANTIATE_TEST_SUITE_P(
    KLGrid, TriggerProperties,
    ::testing::Combine(::testing::Values(2u, 5u, 30u),
                       ::testing::Values(1u, 3u, 7u)),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_l" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace osap::core
