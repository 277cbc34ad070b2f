#include "core/safe_agent.h"

#include <gtest/gtest.h>

#include <memory>

namespace osap::core {
namespace {

/// Test doubles: constant policies and a scripted estimator.
class FixedPolicy final : public mdp::Policy {
 public:
  explicit FixedPolicy(mdp::Action a) : action_(a) {}
  mdp::Action SelectAction(const mdp::State&) override { return action_; }
  void Reset() override { ++resets; }
  std::string Name() const override { return "fixed"; }
  int resets = 0;

 private:
  mdp::Action action_;
};

/// Emits a scripted sequence of scores (repeats the last one when
/// exhausted).
class ScriptedEstimator final : public UncertaintyEstimator {
 public:
  explicit ScriptedEstimator(std::vector<double> scores)
      : scores_(std::move(scores)) {}
  void Reset() override {
    index_ = 0;
    ++resets;
  }
  double Score(const mdp::State&) override {
    ++score_calls;
    const double s =
        index_ < scores_.size() ? scores_[index_] : scores_.back();
    ++index_;
    return s;
  }
  bool Ready() const override { return true; }
  std::string Name() const override { return "scripted"; }
  int resets = 0;
  int score_calls = 0;

 private:
  std::vector<double> scores_;
  std::size_t index_ = 0;
};

SafeAgentConfig BinaryConfig(std::size_t l) {
  SafeAgentConfig cfg;
  cfg.trigger.mode = TriggerMode::kBinary;
  cfg.trigger.l = l;
  return cfg;
}

TEST(SafeAgent, UsesLearnedPolicyWhileCertain) {
  auto learned = std::make_shared<FixedPolicy>(5);
  auto fallback = std::make_shared<FixedPolicy>(0);
  auto estimator =
      std::make_shared<ScriptedEstimator>(std::vector<double>{0.0});
  SafeAgent agent(learned, fallback, estimator, BinaryConfig(3));
  const mdp::State s;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(agent.SelectAction(s), 5);
  }
  EXPECT_FALSE(agent.Defaulted());
  EXPECT_DOUBLE_EQ(agent.DefaultedFraction(), 0.0);
}

TEST(SafeAgent, DefaultsAfterLConsecutiveUncertainSteps) {
  auto learned = std::make_shared<FixedPolicy>(5);
  auto fallback = std::make_shared<FixedPolicy>(0);
  auto estimator = std::make_shared<ScriptedEstimator>(
      std::vector<double>{0.0, 0.0, 1.0, 1.0, 1.0, 1.0});
  SafeAgent agent(learned, fallback, estimator, BinaryConfig(3));
  const mdp::State s;
  EXPECT_EQ(agent.SelectAction(s), 5);  // score 0
  EXPECT_EQ(agent.SelectAction(s), 5);  // score 0
  EXPECT_EQ(agent.SelectAction(s), 5);  // first uncertain
  EXPECT_EQ(agent.SelectAction(s), 5);  // second uncertain
  EXPECT_EQ(agent.SelectAction(s), 0);  // third -> fires, defaults
  EXPECT_TRUE(agent.Defaulted());
  EXPECT_EQ(agent.DefaultStep(), 4u);
}

TEST(SafeAgent, PermanentModeNeverRevokes) {
  auto learned = std::make_shared<FixedPolicy>(5);
  auto fallback = std::make_shared<FixedPolicy>(0);
  // Uncertain burst then quiet forever.
  std::vector<double> scores(3, 1.0);
  scores.resize(100, 0.0);
  auto estimator = std::make_shared<ScriptedEstimator>(scores);
  SafeAgent agent(learned, fallback, estimator, BinaryConfig(3));
  const mdp::State s;
  for (int i = 0; i < 50; ++i) agent.SelectAction(s);
  EXPECT_TRUE(agent.Defaulted());
  EXPECT_EQ(agent.SelectAction(s), 0);
}

TEST(SafeAgent, PermanentModeStopsScoringAfterDefault) {
  // Two certain steps, then uncertain for good: with l=2 the agent
  // defaults at step 3. From then on a kPermanent agent answers from the
  // fallback without consulting the estimator, while its step counters
  // keep advancing; a kRevocable agent must keep scoring every step.
  const std::vector<double> scores = {0.0, 0.0, 1.0, 1.0};
  for (const DefaultingMode mode :
       {DefaultingMode::kPermanent, DefaultingMode::kRevocable}) {
    SCOPED_TRACE(mode == DefaultingMode::kPermanent ? "permanent"
                                                    : "revocable");
    auto learned = std::make_shared<FixedPolicy>(5);
    auto fallback = std::make_shared<FixedPolicy>(0);
    auto estimator = std::make_shared<ScriptedEstimator>(scores);
    SafeAgentConfig cfg = BinaryConfig(2);
    cfg.mode = mode;
    SafeAgent agent(learned, fallback, estimator, cfg);
    const mdp::State s;
    for (std::size_t i = 0; i < scores.size(); ++i) agent.SelectAction(s);
    ASSERT_TRUE(agent.Defaulted());
    EXPECT_EQ(agent.DefaultStep(), 3u);
    EXPECT_EQ(estimator->score_calls, 4);

    for (int i = 0; i < 10; ++i) EXPECT_EQ(agent.SelectAction(s), 0);
    EXPECT_TRUE(agent.Defaulted());
    EXPECT_EQ(agent.StepCount(), 14u);
    // Steps 3..13 defaulted -> 11/14.
    EXPECT_DOUBLE_EQ(agent.DefaultedFraction(), 11.0 / 14.0);
    EXPECT_EQ(estimator->score_calls,
              mode == DefaultingMode::kPermanent ? 4 : 14);
  }
}

TEST(SafeAgent, RevocableModeReturnsAfterQuietPeriod) {
  auto learned = std::make_shared<FixedPolicy>(5);
  auto fallback = std::make_shared<FixedPolicy>(0);
  std::vector<double> scores = {1.0, 1.0};  // fire immediately (l=2)
  scores.resize(50, 0.0);                   // then quiet
  auto estimator = std::make_shared<ScriptedEstimator>(scores);
  SafeAgentConfig cfg = BinaryConfig(2);
  cfg.mode = DefaultingMode::kRevocable;
  cfg.revoke_after = 5;
  SafeAgent agent(learned, fallback, estimator, cfg);
  const mdp::State s;
  agent.SelectAction(s);
  EXPECT_EQ(agent.SelectAction(s), 0);  // defaulted at step 1
  // 5 quiet steps later the agent revokes.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(agent.SelectAction(s), 0);
  EXPECT_EQ(agent.SelectAction(s), 5);
  EXPECT_FALSE(agent.Defaulted());
}

TEST(SafeAgent, RevocableQuietStreakResetsOnNoise) {
  auto learned = std::make_shared<FixedPolicy>(5);
  auto fallback = std::make_shared<FixedPolicy>(0);
  // Fire (l=1), then alternate quiet and uncertain: never revokes with
  // revoke_after=3.
  std::vector<double> scores = {1.0};
  for (int i = 0; i < 30; ++i) {
    scores.push_back(0.0);
    scores.push_back(0.0);
    scores.push_back(1.0);
  }
  auto estimator = std::make_shared<ScriptedEstimator>(scores);
  SafeAgentConfig cfg = BinaryConfig(1);
  cfg.mode = DefaultingMode::kRevocable;
  cfg.revoke_after = 3;
  SafeAgent agent(learned, fallback, estimator, cfg);
  const mdp::State s;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    agent.SelectAction(s);
  }
  EXPECT_TRUE(agent.Defaulted());
}

TEST(SafeAgent, DefaultedFractionTracksUsage) {
  auto learned = std::make_shared<FixedPolicy>(5);
  auto fallback = std::make_shared<FixedPolicy>(0);
  std::vector<double> scores = {0.0, 0.0, 0.0, 0.0, 1.0};
  auto estimator = std::make_shared<ScriptedEstimator>(scores);
  SafeAgent agent(learned, fallback, estimator, BinaryConfig(1));
  const mdp::State s;
  for (int i = 0; i < 10; ++i) agent.SelectAction(s);
  // Steps 0-3 learned, steps 4-9 defaulted -> 6/10.
  EXPECT_NEAR(agent.DefaultedFraction(), 0.6, 1e-12);
  EXPECT_EQ(agent.StepCount(), 10u);
}

TEST(SafeAgent, ResetRestoresLearnedControlAndPropagates) {
  auto learned = std::make_shared<FixedPolicy>(5);
  auto fallback = std::make_shared<FixedPolicy>(0);
  auto estimator =
      std::make_shared<ScriptedEstimator>(std::vector<double>{1.0});
  SafeAgent agent(learned, fallback, estimator, BinaryConfig(1));
  const mdp::State s;
  agent.SelectAction(s);
  EXPECT_TRUE(agent.Defaulted());
  agent.Reset();
  EXPECT_FALSE(agent.Defaulted());
  EXPECT_EQ(agent.StepCount(), 0u);
  EXPECT_EQ(learned->resets, 1);
  EXPECT_EQ(fallback->resets, 1);
  EXPECT_EQ(estimator->resets, 1);
}

TEST(SafeAgent, NameDescribesComposition) {
  auto learned = std::make_shared<FixedPolicy>(5);
  auto fallback = std::make_shared<FixedPolicy>(0);
  auto estimator =
      std::make_shared<ScriptedEstimator>(std::vector<double>{0.0});
  SafeAgent agent(learned, fallback, estimator, BinaryConfig(1));
  EXPECT_EQ(agent.Name(), "safe(fixed->fixed,scripted)");
}

TEST(SafeAgent, ValidatesConstruction) {
  auto p = std::make_shared<FixedPolicy>(0);
  auto e = std::make_shared<ScriptedEstimator>(std::vector<double>{0.0});
  EXPECT_THROW(SafeAgent(nullptr, p, e, BinaryConfig(1)),
               std::invalid_argument);
  EXPECT_THROW(SafeAgent(p, nullptr, e, BinaryConfig(1)),
               std::invalid_argument);
  EXPECT_THROW(SafeAgent(p, p, nullptr, BinaryConfig(1)),
               std::invalid_argument);
}

// SafetyCore holds the defaulting state machine SafeAgent and the serving
// path's DecisionService both run; these tests pin the extracted core to
// the agent's observable behavior on the same score scripts.

TEST(SafetyCore, ObserveMatchesSafeAgentStepForStep) {
  const std::vector<double> scores = {0.0, 1.0, 1.0, 0.0, 1.0, 1.0,
                                      1.0, 0.0, 0.0, 0.0, 0.0, 1.0};
  for (const DefaultingMode mode :
       {DefaultingMode::kPermanent, DefaultingMode::kRevocable}) {
    SafeAgentConfig cfg = BinaryConfig(2);
    cfg.mode = mode;
    cfg.revoke_after = 3;
    auto learned = std::make_shared<FixedPolicy>(5);
    auto fallback = std::make_shared<FixedPolicy>(0);
    SafeAgent agent(learned, fallback,
                    std::make_shared<ScriptedEstimator>(scores), cfg);
    SafetyCore core(cfg);
    const mdp::State s;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      const bool use_fallback = core.Observe(scores[i]);
      EXPECT_EQ(agent.SelectAction(s), use_fallback ? 0 : 5)
          << "step " << i;
      EXPECT_EQ(core.Defaulted(), agent.Defaulted()) << "step " << i;
    }
    EXPECT_EQ(core.StepCount(), agent.StepCount());
    EXPECT_EQ(core.DefaultStep(), agent.DefaultStep());
    EXPECT_DOUBLE_EQ(core.DefaultedFraction(), agent.DefaultedFraction());
  }
}

TEST(SafetyCore, ResetClearsTheStateMachine) {
  SafeAgentConfig cfg = BinaryConfig(1);
  SafetyCore core(cfg);
  EXPECT_TRUE(core.Observe(1.0));
  EXPECT_TRUE(core.Defaulted());
  core.Reset();
  EXPECT_FALSE(core.Defaulted());
  EXPECT_EQ(core.StepCount(), 0u);
  EXPECT_DOUBLE_EQ(core.DefaultedFraction(), 0.0);
  EXPECT_FALSE(core.Observe(0.0));
}

TEST(SafetyCore, RevocableRequiresPositiveRevokeAfter) {
  SafeAgentConfig cfg = BinaryConfig(1);
  cfg.mode = DefaultingMode::kRevocable;
  cfg.revoke_after = 0;
  EXPECT_THROW(SafetyCore core(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace osap::core
