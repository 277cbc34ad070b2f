// Boundary cases of core::SafetyObserve, the one defaulting step the
// sequential SafeAgent, the serving shards and the replay all run. Each
// scripted score stream is driven side by side through
//   - SafetyObserve on a bare SafetyState / SafetyCold / score ring,
//   - an independent reference: testing::ReferenceMachine, the
//     SlidingWindowStats trigger feeding a defaulting latch, and
//   - the SafetyCore wrapper,
// and all three must agree on the fallback decision, steps, the count of
// fallback-answered steps (SafetyCore's) and default_step at every step.
// The scripts also pin the expected decision per step, so the threshold
// semantics (binary cut `score >= 0.5`, variance cut `variance > alpha`,
// silence while the window fills) cannot drift together in all three.
#include "core/safety_core.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "testing/reference_trigger.h"

namespace osap::core {
namespace {

using osap::testing::ReferenceMachine;

struct ScriptStep {
  double score;
  bool fallback;  // the decision the step must produce
};

void RunScript(const SafeAgentConfig& config,
               const std::vector<ScriptStep>& script) {
  ValidateSafeAgentConfig(config);
  SafetyState state;
  SafetyCold cold;
  std::vector<double> ring(SafetyRingDoubles(config));
  ReferenceMachine reference(config);
  SafetyCore core(config);
  for (std::size_t i = 0; i < script.size(); ++i) {
    const double score = script[i].score;
    const bool observed =
        SafetyObserve(config, state, cold, ring.data(), score);
    const bool expected = reference.Step(score);
    const bool wrapped = core.Observe(score);
    EXPECT_EQ(observed, script[i].fallback) << "step " << i;
    EXPECT_EQ(observed, expected) << "step " << i;
    EXPECT_EQ(wrapped, expected) << "step " << i;
    EXPECT_EQ(state.defaulted, reference.defaulted) << "step " << i;
    EXPECT_EQ(state.consecutive, reference.trigger.ConsecutiveUncertain())
        << "step " << i;
    EXPECT_EQ(state.steps, reference.steps) << "step " << i;
    EXPECT_EQ(core.DefaultedSteps(), reference.defaulted_steps)
        << "step " << i;
    EXPECT_EQ(cold.default_step, reference.default_step) << "step " << i;
    EXPECT_EQ(core.StepCount(), reference.steps) << "step " << i;
    EXPECT_EQ(core.DefaultStep(), reference.default_step) << "step " << i;
    EXPECT_DOUBLE_EQ(
        core.DefaultedFraction() * static_cast<double>(core.StepCount()),
        static_cast<double>(reference.defaulted_steps))
        << "step " << i;
  }
}

SafeAgentConfig Binary(std::size_t l) {
  SafeAgentConfig config;
  config.trigger.mode = TriggerMode::kBinary;
  config.trigger.l = l;
  return config;
}

/// k = 3, l = 2, alpha = 2. Every window below holds small integers whose
/// sum and sum of squares divide by 3, so each variance is exact: {0,0,3}
/// sits exactly on alpha (2), {0,3,9} / {3,9,0} are 14, {9,0,0} is 18
/// and {3,3,9} / {3,9,3} / {9,3,3} are 8.
SafeAgentConfig Variance(DefaultingMode mode) {
  SafeAgentConfig config;
  config.trigger.mode = TriggerMode::kWindowVariance;
  config.trigger.k = 3;
  config.trigger.l = 2;
  config.trigger.alpha = 2.0;
  config.mode = mode;
  config.revoke_after = 2;
  return config;
}

TEST(SafetyObserve, BinaryCutAtExactlyHalfIsUncertain) {
  const double below = std::nextafter(0.5, 0.0);
  RunScript(Binary(2), {
                           {0.0, false},
                           {0.5, false},    // uncertain, streak 1
                           {below, false},  // certain: streak resets
                           {0.5, false},    // streak 1 again
                           {0.5, true},     // streak 2 = l: defaults
                           {0.0, true},     // permanent
                           {below, true},
                       });
}

TEST(SafetyObserve, VarianceEqualToAlphaIsCertainAndWarmUpIsSilent) {
  RunScript(Variance(DefaultingMode::kPermanent),
            {
                {9.0, false},  // warm-up: window not full
                {0.0, false},  // warm-up, despite a wide partial window
                {0.0, false},  // {9,0,0} = 18 > alpha: streak 1
                {3.0, false},  // {0,0,3} = alpha: certain, streak resets
                {9.0, false},  // {0,3,9} = 14: streak 1
                {0.0, true},   // {3,9,0} = 14: streak 2, defaults at 5
                {0.0, true},
                {3.0, true},
                {3.0, true},  // quiet windows cannot revoke a permanent
                {3.0, true},
            });
}

TEST(SafetyObserve, RevocableRevokesAfterQuietStreakAndRedefaults) {
  RunScript(Variance(DefaultingMode::kRevocable),
            {
                {9.0, false},
                {0.0, false},
                {0.0, false},  // 18: streak 1
                {3.0, false},  // exactly alpha: streak resets
                {9.0, false},  // 14: streak 1
                {0.0, true},   // 14: defaults at step 5
                {0.0, true},   // {9,0,0} = 18: still firing, quiet 0
                {3.0, true},   // {0,0,3} = alpha: quiet 1
                {9.0, true},   // {0,3,9} = 14: open streak, quiet resets
                {3.0, true},   // {3,9,3} = 8: fires again
                {3.0, true},   // {9,3,3} = 8
                {3.0, true},   // {3,3,3} = 0: quiet 1
                {3.0, false},  // quiet 2: revoked
                {9.0, false},  // {3,3,9} = 8: streak 1
                {3.0, true},   // {3,9,3} = 8: defaults again at step 14
            });
}

}  // namespace
}  // namespace osap::core
