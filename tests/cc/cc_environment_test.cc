#include "cc/cc_environment.h"

#include <gtest/gtest.h>

#include <utility>

#include "mdp/rollout.h"
#include "policies/random_policy.h"

namespace osap::cc {
namespace {

traces::Trace FlatTrace(double mbps) {
  return traces::Trace("flat", 1.0, std::vector<double>(1000, mbps));
}

CcEnvironmentConfig SmallConfig() {
  CcEnvironmentConfig cfg;
  cfg.episode_mis = 50;
  return cfg;
}

// SetFixedTrace keeps a pointer to its trace, so a temporary (which
// would dangle after the call) must not compile; an lvalue must.
template <typename Trace>
constexpr bool kSetFixedTraceAccepts =
    requires(CcEnvironment& env) { env.SetFixedTrace(std::declval<Trace>()); };
static_assert(kSetFixedTraceAccepts<const traces::Trace&>);
static_assert(!kSetFixedTraceAccepts<traces::Trace>);
static_assert(!kSetFixedTraceAccepts<const traces::Trace>);

TEST(CcEnvironment, ResetRequiresATrace) {
  CcEnvironment env(SmallConfig());
  EXPECT_THROW(env.Reset(), std::invalid_argument);
}

TEST(CcEnvironment, InitialStateIsZero) {
  CcEnvironment env(SmallConfig());
  const traces::Trace trace = FlatTrace(4.0);
  env.SetFixedTrace(trace);
  const mdp::State s = env.Reset();
  ASSERT_EQ(s.size(), env.StateSize());
  for (double v : s) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_DOUBLE_EQ(env.CurrentRateMbps(),
                   SmallConfig().initial_rate_mbps);
}

TEST(CcEnvironment, EpisodeTerminatesAfterConfiguredMis) {
  CcEnvironment env(SmallConfig());
  const traces::Trace trace = FlatTrace(4.0);
  env.SetFixedTrace(trace);
  policies::RandomPolicy random(env.ActionCount(), 1);
  const mdp::Trajectory t = mdp::Rollout(env, random);
  EXPECT_EQ(t.Length(), 50u);
}

TEST(CcEnvironment, ActionsMultiplyTheRate) {
  CcEnvironmentConfig cfg = SmallConfig();
  CcEnvironment env(cfg);
  const traces::Trace trace = FlatTrace(100.0);  // never the bottleneck
  env.SetFixedTrace(trace);
  env.Reset();
  const double r0 = env.CurrentRateMbps();
  env.Step(4);  // x1.4
  EXPECT_NEAR(env.CurrentRateMbps(), r0 * 1.4, 1e-9);
  env.Step(0);  // x0.7
  EXPECT_NEAR(env.CurrentRateMbps(), r0 * 1.4 * 0.7, 1e-9);
}

TEST(CcEnvironment, RateRespectsBounds) {
  CcEnvironmentConfig cfg = SmallConfig();
  CcEnvironment env(cfg);
  const traces::Trace trace = FlatTrace(100.0);
  env.SetFixedTrace(trace);
  env.Reset();
  for (int i = 0; i < 100; ++i) env.Step(0);  // hammer decrease
  EXPECT_DOUBLE_EQ(env.CurrentRateMbps(), cfg.min_rate_mbps);
  env.Reset();
  for (int i = 0; i < 100; ++i) env.Step(4);  // hammer increase
  EXPECT_DOUBLE_EQ(env.CurrentRateMbps(), cfg.max_rate_mbps);
}

TEST(CcEnvironment, StateEncodesAuroraStatistics) {
  CcEnvironmentConfig cfg = SmallConfig();
  CcEnvironment env(cfg);
  const traces::Trace trace = FlatTrace(4.0);
  env.SetFixedTrace(trace);
  env.Reset();
  // Steady under-utilization (rate 2 < capacity 4): latency ratio ~1,
  // send ratio ~1, delivered ~rate.
  mdp::State s;
  for (int i = 0; i < 10; ++i) s = env.Step(2).next_state;  // no-op action
  const CcStateLayout& layout = env.layout();
  EXPECT_NEAR(layout.LatestLatencyRatio(s), 1.0, 1e-6);
  EXPECT_NEAR(layout.LatestSendRatio(s), 1.0, 1e-6);
  EXPECT_NEAR(layout.LatestDeliveredMbps(s), 2.0, 1e-6);
}

TEST(CcEnvironment, OverloadShowsUpInTheState) {
  CcEnvironmentConfig cfg = SmallConfig();
  cfg.initial_rate_mbps = 20.0;
  CcEnvironment env(cfg);
  const traces::Trace trace = FlatTrace(1.0);
  env.SetFixedTrace(trace);
  env.Reset();
  mdp::State s;
  for (int i = 0; i < 5; ++i) s = env.Step(2).next_state;
  const CcStateLayout& layout = env.layout();
  EXPECT_GT(layout.LatestSendRatio(s), 2.0);
  EXPECT_GT(layout.LatestLatencyRatio(s), 1.0);
}

TEST(CcEnvironment, RewardRewardsThroughputPenalizesCongestion) {
  CcEnvironmentConfig cfg = SmallConfig();
  CcEnvironment env(cfg);
  const traces::Trace trace = FlatTrace(4.0);
  env.SetFixedTrace(trace);
  // Clean under-utilization: reward == throughput term.
  env.Reset();
  const double clean = env.Step(2).reward;
  EXPECT_NEAR(clean, cfg.throughput_weight * 2.0, 1e-6);
  // Persistent overload: queueing latency drags the reward down.
  CcEnvironmentConfig hot = cfg;
  hot.initial_rate_mbps = 30.0;
  CcEnvironment hot_env(hot);
  hot_env.SetFixedTrace(trace);
  hot_env.Reset();
  double last = 0.0;
  for (int i = 0; i < 10; ++i) last = hot_env.Step(2).reward;
  EXPECT_LT(last, 0.0);
}

TEST(CcEnvironment, HistoryWindowShifts) {
  CcEnvironmentConfig cfg = SmallConfig();
  CcEnvironment env(cfg);
  const traces::Trace trace = FlatTrace(4.0);
  env.SetFixedTrace(trace);
  env.Reset();
  mdp::State s = env.Step(2).next_state;
  const CcStateLayout& layout = env.layout();
  // Only the newest MI slot is populated after one step.
  EXPECT_GT(s[layout.SendRatioIndex(layout.history - 1)], 0.0);
  EXPECT_DOUBLE_EQ(s[layout.SendRatioIndex(layout.history - 2)], 0.0);
  s = env.Step(2).next_state;
  EXPECT_GT(s[layout.SendRatioIndex(layout.history - 2)], 0.0);
}

TEST(CcEnvironment, FixedTraceIsDeterministic) {
  CcEnvironment env(SmallConfig());
  const traces::Trace trace("var", 1.0, {2.0, 6.0, 1.0, 8.0});
  env.SetFixedTrace(trace);
  policies::RandomPolicy p1(env.ActionCount(), 5);
  policies::RandomPolicy p2(env.ActionCount(), 5);
  EXPECT_DOUBLE_EQ(mdp::Rollout(env, p1).TotalReward(),
                   mdp::Rollout(env, p2).TotalReward());
}

TEST(CcEnvironment, ValidatesConfigAndActions) {
  CcEnvironmentConfig bad = SmallConfig();
  bad.rate_multipliers = {1.0};
  EXPECT_THROW(CcEnvironment{bad}, std::invalid_argument);
  CcEnvironment env(SmallConfig());
  const traces::Trace trace = FlatTrace(4.0);
  env.SetFixedTrace(trace);
  env.Reset();
  EXPECT_THROW(env.Step(-1), std::invalid_argument);
  EXPECT_THROW(env.Step(99), std::invalid_argument);
}

}  // namespace
}  // namespace osap::cc
