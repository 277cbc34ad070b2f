#include "abr/abr_environment.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "mdp/rollout.h"
#include "policies/random_policy.h"

namespace osap::abr {
namespace {

traces::Trace FlatTrace(double mbps = 8.0, std::size_t seconds = 2000) {
  return traces::Trace("flat", 1.0,
                       std::vector<double>(seconds, mbps));
}

AbrEnvironment MakeEnv(std::size_t repeats = 1) {
  return AbrEnvironment(MakeEnvivioLikeVideo(repeats), {});
}

// SetFixedTrace keeps a pointer to its trace, so a temporary (which
// would dangle after the call) must not compile; an lvalue must.
template <typename Trace>
constexpr bool kSetFixedTraceAccepts =
    requires(AbrEnvironment& env) { env.SetFixedTrace(std::declval<Trace>()); };
static_assert(kSetFixedTraceAccepts<const traces::Trace&>);
static_assert(!kSetFixedTraceAccepts<traces::Trace>);
static_assert(!kSetFixedTraceAccepts<const traces::Trace>);

TEST(AbrEnvironment, ResetRequiresATrace) {
  AbrEnvironment env = MakeEnv();
  EXPECT_THROW(env.Reset(), std::invalid_argument);
}

TEST(AbrEnvironment, InitialStateIsZeroHistory) {
  AbrEnvironment env = MakeEnv();
  const traces::Trace trace = FlatTrace();
  env.SetFixedTrace(trace);
  const mdp::State s = env.Reset();
  const AbrStateLayout& layout = env.layout();
  ASSERT_EQ(s.size(), layout.Size());
  EXPECT_DOUBLE_EQ(s[layout.LastBitrateIndex()], 0.0);
  EXPECT_DOUBLE_EQ(s[layout.BufferIndex()], 0.0);
  for (std::size_t i = 0; i < layout.history; ++i) {
    EXPECT_DOUBLE_EQ(layout.ThroughputMbps(s, i), 0.0);
  }
  EXPECT_DOUBLE_EQ(layout.RemainingFraction(s), 1.0);
  // Next-chunk sizes for chunk 0 are populated.
  EXPECT_GT(layout.NextChunkBytes(s, 0), 0.0);
}

TEST(AbrEnvironment, StepUpdatesAllStateFields) {
  AbrEnvironment env = MakeEnv();
  const traces::Trace trace = FlatTrace();
  env.SetFixedTrace(trace);
  env.Reset();
  const mdp::StepResult r = env.Step(5);
  const AbrStateLayout& layout = env.layout();
  const mdp::State& s = r.next_state;
  EXPECT_DOUBLE_EQ(s[layout.LastBitrateIndex()], 1.0);  // top level
  EXPECT_GT(layout.BufferSeconds(s), 0.0);
  EXPECT_GT(layout.LatestThroughputMbps(s), 0.0);
  EXPECT_NEAR(layout.RemainingFraction(s), 47.0 / 48.0, 1e-12);
  EXPECT_FALSE(r.done);
}

TEST(AbrEnvironment, ThroughputHistoryShiftsOldestFirst) {
  AbrEnvironment env = MakeEnv();
  const traces::Trace trace = FlatTrace();
  env.SetFixedTrace(trace);
  env.Reset();
  const AbrStateLayout& layout = env.layout();
  mdp::State s;
  for (int i = 0; i < 3; ++i) s = env.Step(0).next_state;
  // Three most recent taps populated; older taps zero.
  for (std::size_t i = 0; i < layout.history - 3; ++i) {
    EXPECT_DOUBLE_EQ(layout.ThroughputMbps(s, i), 0.0);
  }
  for (std::size_t i = layout.history - 3; i < layout.history; ++i) {
    EXPECT_GT(layout.ThroughputMbps(s, i), 0.0);
  }
}

TEST(AbrEnvironment, RewardMatchesQoeAccumulator) {
  AbrEnvironment env = MakeEnv();
  const traces::Trace trace = FlatTrace();
  env.SetFixedTrace(trace);
  env.Reset();
  double total = 0.0;
  total += env.Step(2).reward;
  total += env.Step(4).reward;
  total += env.Step(1).reward;
  EXPECT_NEAR(total, env.Qoe().Total(), 1e-12);
}

TEST(AbrEnvironment, EpisodeTerminatesAfterAllChunks) {
  AbrEnvironment env = MakeEnv();
  const traces::Trace trace = FlatTrace();
  env.SetFixedTrace(trace);
  policies::RandomPolicy policy(env.ActionCount(), 3);
  const mdp::Trajectory t = mdp::Rollout(env, policy);
  EXPECT_EQ(t.Length(), 48u);
}

TEST(AbrEnvironment, FixedTraceIsDeterministic) {
  AbrEnvironment env = MakeEnv();
  const traces::Trace trace = FlatTrace(3.0);
  env.SetFixedTrace(trace);
  policies::RandomPolicy p1(env.ActionCount(), 7);
  policies::RandomPolicy p2(env.ActionCount(), 7);
  const double q1 = mdp::Rollout(env, p1).TotalReward();
  const double q2 = mdp::Rollout(env, p2).TotalReward();
  EXPECT_DOUBLE_EQ(q1, q2);
}

TEST(AbrEnvironment, TracePoolSamplesDifferentTraces) {
  AbrEnvironment env = MakeEnv();
  std::vector<traces::Trace> pool;
  pool.emplace_back("a", 1.0, std::vector<double>(2000, 1.0));
  pool.emplace_back("b", 1.0, std::vector<double>(2000, 8.0));
  env.SetTracePool(pool, 5);
  std::set<std::string> seen;
  for (int i = 0; i < 20; ++i) {
    env.Reset();
    seen.insert(env.current_trace()->name());
  }
  EXPECT_EQ(seen.size(), 2u);
}

TEST(AbrEnvironment, LastDownloadExposesObservation) {
  AbrEnvironment env = MakeEnv();
  const traces::Trace trace = FlatTrace();
  env.SetFixedTrace(trace);
  env.Reset();
  env.Step(3);
  const DownloadResult& d = env.LastDownload();
  EXPECT_GT(d.throughput_mbps, 0.0);
  EXPECT_GT(d.bytes, 0.0);
}

TEST(AbrEnvironment, RejectsOutOfRangeAction) {
  AbrEnvironment env = MakeEnv();
  const traces::Trace trace = FlatTrace();
  env.SetFixedTrace(trace);
  env.Reset();
  EXPECT_THROW(env.Step(6), std::invalid_argument);
  EXPECT_THROW(env.Step(-1), std::invalid_argument);
}

TEST(AbrEnvironment, StateNormalizationsAreBounded) {
  // Over a random rollout, normalized state entries stay in sane ranges.
  AbrEnvironment env = MakeEnv(5);
  const traces::Trace trace = FlatTrace(2.0);
  env.SetFixedTrace(trace);
  policies::RandomPolicy policy(env.ActionCount(), 13);
  mdp::State s = env.Reset();
  bool done = false;
  while (!done) {
    for (double v : s) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 20.0);
    }
    const mdp::StepResult r = env.Step(policy.SelectAction(s));
    s = r.next_state;
    done = r.done;
  }
}

TEST(AbrEnvironment, ResumePointRestoresMidSessionStateExactly) {
  // Save a resume point mid-session, finish the session recording every
  // step, then restore the point into a DIFFERENT environment instance
  // and replay the same actions: rewards and states must match bit for
  // bit (this is what record-and-replay calibration stands on).
  std::vector<double> mbps;
  for (std::size_t i = 0; i < 2000; ++i) {
    mbps.push_back(1.0 + 0.5 * static_cast<double>(i % 7));
  }
  const traces::Trace trace("varying", 1.0, mbps);
  AbrEnvironment env = MakeEnv();
  env.SetFixedTrace(trace);
  env.Reset();
  const std::vector<int> prefix = {0, 3, 5, 1, 4, 2, 5, 0};
  for (const int a : prefix) env.Step(a);

  const AbrEnvironment::ResumePoint resume = env.SaveResumePoint();
  std::vector<mdp::Action> actions;
  std::vector<double> rewards;
  std::vector<mdp::State> states;
  bool done = false;
  int a = 1;
  while (!done) {
    const mdp::StepResult r = env.Step(a);
    actions.push_back(a);
    rewards.push_back(r.reward);
    states.push_back(r.next_state);
    done = r.done;
    a = (a + 2) % 6;
  }

  AbrEnvironment other = MakeEnv();  // same video/config, fresh instance
  other.RestoreResumePoint(resume);
  for (std::size_t t = 0; t < actions.size(); ++t) {
    const mdp::StepResult r = other.Step(actions[t]);
    EXPECT_EQ(r.reward, rewards[t]) << "step " << t;
    EXPECT_EQ(r.next_state, states[t]) << "step " << t;
    EXPECT_EQ(r.done, t + 1 == actions.size()) << "step " << t;
  }
}

TEST(AbrEnvironment, ResumePointSurvivesInterleavedUse) {
  // Restoring after the source env has moved on (or been reset onto
  // another trace) still reproduces the saved step: the resume point
  // owns all dynamic state except the trace, which the caller keeps
  // alive.
  const traces::Trace trace = FlatTrace(3.0);
  const traces::Trace other_trace = FlatTrace(9.0);
  AbrEnvironment env = MakeEnv();
  env.SetFixedTrace(trace);
  env.Reset();
  env.Step(2);
  env.Step(4);
  const AbrEnvironment::ResumePoint resume = env.SaveResumePoint();
  const mdp::StepResult expected = env.Step(3);

  env.SetFixedTrace(other_trace);  // clobber the source env's state
  env.Reset();
  env.Step(1);

  env.RestoreResumePoint(resume);
  const mdp::StepResult replayed = env.Step(3);
  EXPECT_EQ(replayed.reward, expected.reward);
  EXPECT_EQ(replayed.next_state, expected.next_state);
  EXPECT_EQ(replayed.done, expected.done);
}

}  // namespace
}  // namespace osap::abr
