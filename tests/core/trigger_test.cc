#include "testing/reference_trigger.h"

#include <gtest/gtest.h>

namespace osap::core {
namespace {

using osap::testing::DefaultTrigger;

TriggerConfig Binary(std::size_t l) {
  TriggerConfig cfg;
  cfg.mode = TriggerMode::kBinary;
  cfg.l = l;
  return cfg;
}

TriggerConfig Variance(std::size_t k, std::size_t l, double alpha) {
  TriggerConfig cfg;
  cfg.mode = TriggerMode::kWindowVariance;
  cfg.k = k;
  cfg.l = l;
  cfg.alpha = alpha;
  return cfg;
}

TEST(DefaultTrigger, BinaryFiresAfterLConsecutive) {
  DefaultTrigger trigger(Binary(3));
  EXPECT_FALSE(trigger.Update(1.0));
  EXPECT_FALSE(trigger.Update(1.0));
  EXPECT_TRUE(trigger.Update(1.0));
}

TEST(DefaultTrigger, BinaryStreakResetsOnCertainStep) {
  DefaultTrigger trigger(Binary(3));
  trigger.Update(1.0);
  trigger.Update(1.0);
  EXPECT_FALSE(trigger.Update(0.0));  // streak broken
  EXPECT_EQ(trigger.ConsecutiveUncertain(), 0u);
  trigger.Update(1.0);
  trigger.Update(1.0);
  EXPECT_TRUE(trigger.Update(1.0));
}

TEST(DefaultTrigger, BinaryLOneFiresImmediately) {
  DefaultTrigger trigger(Binary(1));
  EXPECT_FALSE(trigger.Update(0.0));
  EXPECT_TRUE(trigger.Update(1.0));
}

TEST(DefaultTrigger, VarianceModeSilentDuringWarmup) {
  DefaultTrigger trigger(Variance(5, 1, 0.0));
  // Wild scores, but the window is not yet full.
  EXPECT_FALSE(trigger.Update(100.0));
  EXPECT_FALSE(trigger.Update(0.0));
  EXPECT_FALSE(trigger.Update(50.0));
  EXPECT_FALSE(trigger.Update(0.0));
}

TEST(DefaultTrigger, VarianceModeFiresOnHighVariance) {
  DefaultTrigger trigger(Variance(3, 1, 0.1));
  trigger.Update(0.0);
  trigger.Update(0.0);
  EXPECT_FALSE(trigger.Update(0.0));  // variance 0
  EXPECT_TRUE(trigger.Update(10.0));  // window {0,0,10}: var >> 0.1
}

TEST(DefaultTrigger, ConstantSignalNeverFiresVarianceMode) {
  DefaultTrigger trigger(Variance(4, 1, 1e-9));
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(trigger.Update(7.7));
  }
}

TEST(DefaultTrigger, AlphaIsAStrictThreshold) {
  // Window {0, 2}: variance 1. alpha = 1 must NOT fire (strictly greater
  // required); alpha just below 1 must fire.
  DefaultTrigger at(Variance(2, 1, 1.0));
  at.Update(0.0);
  EXPECT_FALSE(at.Update(2.0));
  DefaultTrigger below(Variance(2, 1, 0.999));
  below.Update(0.0);
  EXPECT_TRUE(below.Update(2.0));
}

TEST(DefaultTrigger, VarianceModeRespectsL) {
  DefaultTrigger trigger(Variance(2, 3, 0.01));
  trigger.Update(0.0);
  EXPECT_FALSE(trigger.Update(1.0));  // uncertain 1
  EXPECT_FALSE(trigger.Update(0.0));  // uncertain 2 (window {1,0})
  EXPECT_TRUE(trigger.Update(1.0));   // uncertain 3 -> fire
}

TEST(DefaultTrigger, ResetClearsWindowAndStreak) {
  DefaultTrigger trigger(Variance(2, 1, 0.01));
  trigger.Update(0.0);
  trigger.Update(5.0);
  trigger.Reset();
  EXPECT_EQ(trigger.ConsecutiveUncertain(), 0u);
  // Warm-up applies again after reset.
  EXPECT_FALSE(trigger.Update(100.0));
}

TEST(DefaultTrigger, ValidatesConfig) {
  TriggerConfig bad = Binary(0);
  EXPECT_THROW(DefaultTrigger{bad}, std::invalid_argument);
  TriggerConfig bad_k = Variance(1, 1, 0.0);
  EXPECT_THROW(DefaultTrigger{bad_k}, std::invalid_argument);
  TriggerConfig bad_alpha = Variance(3, 1, -1.0);
  EXPECT_THROW(DefaultTrigger{bad_alpha}, std::invalid_argument);
}

TEST(DefaultTrigger, WindowVarianceAccessorTracksWindow) {
  DefaultTrigger trigger(Variance(2, 1, 100.0));
  trigger.Update(0.0);
  trigger.Update(2.0);
  EXPECT_NEAR(trigger.WindowVariance(), 1.0, 1e-12);
}

}  // namespace
}  // namespace osap::core
