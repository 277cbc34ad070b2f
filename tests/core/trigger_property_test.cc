// Property-based sweeps over the tests' reference trigger: for every
// (k, l) combination, the firing semantics promised by the paper's
// thresholding description must hold exactly.
#include <gtest/gtest.h>

#include <tuple>

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
