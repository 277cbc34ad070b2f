// Record-and-replay calibration must be a pure speedup: every quantity it
// produces - the alpha search's upper bound, the per-candidate mean QoE,
// and therefore the calibrated alpha itself - must be bit-identical to the
// full SafeAgent re-evaluation oracle (testing/full_calibration.h).
#include "core/replay_calibration.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "abr/abr_environment.h"
#include "core/calibration.h"
#include "core/ensemble_estimators.h"
#include "policies/buffer_based.h"
#include "policies/pensieve_net.h"
#include "policies/pensieve_policy.h"
#include "testing/full_calibration.h"
#include "traces/generators.h"

namespace osap::core {
namespace {

constexpr std::size_t kTriggerK = 5;
constexpr std::size_t kTriggerL = 3;

abr::AbrStateLayout Layout() { return abr::AbrStateLayout{}; }

std::vector<std::shared_ptr<nn::ActorCriticNet>> MakeAgents(std::size_t n) {
  std::vector<std::shared_ptr<nn::ActorCriticNet>> agents;
  for (std::size_t i = 0; i < n; ++i) {
    Rng rng(100 + i);
    agents.push_back(std::make_shared<nn::ActorCriticNet>(
        policies::MakePensieveActorCritic(Layout(), {}, rng)));
  }
  return agents;
}

std::vector<traces::Trace> ValidationTraces(std::size_t n) {
  Rng rng(77);
  const auto gen = traces::MakeNorway3gGenerator();
  std::vector<traces::Trace> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(gen->Generate(rng, 200.0, i));
  }
  return out;
}

struct ReplayFixtureParts {
  abr::VideoSpec video = abr::MakeEnvivioLikeVideo(1);
  std::vector<std::shared_ptr<nn::ActorCriticNet>> agents = MakeAgents(5);
  std::vector<traces::Trace> traces = ValidationTraces(4);

  std::shared_ptr<mdp::Policy> MakeLearned() const {
    return std::make_shared<policies::PensievePolicy>(
        agents.front(), policies::ActionSelection::kGreedy, /*seed=*/0);
  }
  std::shared_ptr<mdp::Policy> MakeFallback() const {
    return std::make_shared<policies::BufferBasedPolicy>(video,
                                                         abr::AbrStateLayout{});
  }
  /// The full re-evaluation oracle over the same policies and traces.
  testing::FullReEvaluation Full() const {
    return testing::FullReEvaluation(
        [this] { return MakeLearned(); }, [this] { return MakeFallback(); },
        abr::AbrEnvironment(video, {}), traces, kTriggerK, kTriggerL);
  }
  /// Factory for the U_pi estimator under test: ScoreWith spawns one
  /// instance per worker, all equivalent (pure function of the weights).
  CalibrationReplay<abr::AbrEnvironment>::EstimatorFactory MakeEstimator(
      std::size_t discard) const {
    return [this, discard]() -> std::shared_ptr<UncertaintyEstimator> {
      return std::make_shared<AgentEnsembleEstimator>(agents, discard);
    };
  }
};

/// A stateful binary estimator for exercising the ND-style trigger path:
/// deterministic in the post-Reset step sequence (scores 1.0 on a fixed
/// periodic pattern long enough to sustain l consecutive exceedances).
class PeriodicBinaryEstimator final : public UncertaintyEstimator {
 public:
  void Reset() override { step_ = 0; }
  double Score(const mdp::State&) override {
    const std::size_t phase = step_++ % 29;
    return phase >= 20 && phase < 24 ? 1.0 : 0.0;
  }
  bool Ready() const override { return true; }
  std::string Name() const override { return "periodic_binary"; }

 private:
  std::size_t step_ = 0;
};

TEST(FirstTriggerStep, ReplicatesConsecutiveExceedanceSemantics) {
  ReplaySession session;
  // Window full from t >= k - 1 = 2 with k = 3.
  session.variances = {9.0, 9.0, 0.1, 5.0, 5.0, 0.1, 5.0, 5.0, 5.0};
  // t=0,1 exceed but the window is not full yet; t=3,4 exceed but the run
  // is broken at t=5; the first l=3 consecutive full-window exceedances
  // end at t=8.
  EXPECT_EQ(FirstTriggerStep(session, 1.0, /*k=*/3, /*l=*/3), 8u);
  EXPECT_EQ(FirstTriggerStep(session, 1.0, /*k=*/3, /*l=*/2), 4u);
  // Above every variance: never fires.
  EXPECT_EQ(FirstTriggerStep(session, 100.0, 3, 1), kReplayNoTrigger);
  // l = 1 fires on the first full-window exceedance.
  EXPECT_EQ(FirstTriggerStep(session, 1.0, 3, 1), 3u);
}

TEST(CalibrationReplay, UpperBoundMatchesMaxWindowVariance) {
  ReplayFixtureParts f;
  abr::AbrEnvironment env(f.video, {});
  AgentEnsembleEstimator estimator(f.agents, 2);

  CalibrationReplay<abr::AbrEnvironment> replay(
      [&] { return f.MakeLearned(); }, [&] { return f.MakeFallback(); }, env,
      f.traces, kTriggerK, kTriggerL, util::ThreadPool::Shared());
  replay.ScoreWith(f.MakeEstimator(2));

  abr::AbrEnvironment serial_env(f.video, {});
  auto driver = f.MakeLearned();
  const double direct = MaxWindowVariance(estimator, *driver, serial_env,
                                          f.traces, kTriggerK);
  EXPECT_GT(direct, 0.0);
  EXPECT_EQ(replay.MaxFullWindowVariance(), direct);
}

TEST(CalibrationReplay, MeanQoeBitIdenticalToFullSafeAgentEvaluation) {
  ReplayFixtureParts f;
  abr::AbrEnvironment env(f.video, {});
  auto estimator = std::make_shared<AgentEnsembleEstimator>(f.agents, 2);

  CalibrationReplay<abr::AbrEnvironment> replay(
      [&] { return f.MakeLearned(); }, [&] { return f.MakeFallback(); }, env,
      f.traces, kTriggerK, kTriggerL, util::ThreadPool::Shared());
  replay.ScoreWith(f.MakeEstimator(2));
  const double hi = replay.MaxFullWindowVariance();
  ASSERT_GT(hi, 0.0);

  // Sweep alphas that trigger never, sometimes, and immediately.
  testing::FullReEvaluation full = f.Full();
  for (const double alpha :
       {0.0, hi * 0.05, hi * 0.25, hi * 0.5, hi * 0.9, hi * 2.0}) {
    EXPECT_EQ(replay.MeanQoeAt(alpha), full.QoeAt(estimator, alpha))
        << "alpha = " << alpha;
  }
}

TEST(CalibrationReplay, CalibratedAlphaBitIdenticalToFullBisection) {
  ReplayFixtureParts f;
  abr::AbrEnvironment env(f.video, {});
  auto estimator = std::make_shared<AgentEnsembleEstimator>(f.agents, 2);
  CalibrationConfig calib;
  calib.max_iterations = 8;

  // Target: QoE halfway between never-defaulting and always-defaulting,
  // so the bisection has something to chase.
  CalibrationReplay<abr::AbrEnvironment> replay(
      [&] { return f.MakeLearned(); }, [&] { return f.MakeFallback(); }, env,
      f.traces, kTriggerK, kTriggerL, util::ThreadPool::Shared());
  replay.ScoreWith(f.MakeEstimator(2));
  const double hi = replay.MaxFullWindowVariance();
  ASSERT_GT(hi, 0.0);
  const double target =
      0.5 * (replay.MeanQoeAt(0.0) + replay.MeanQoeAt(hi * 2.0));

  const CalibrationResult via_replay = CalibrateAlpha(
      [&](double alpha) { return replay.MeanQoeAt(alpha); }, target, 0.0,
      hi * 1.25, calib);

  const CalibrationResult via_full =
      f.Full().Calibrate(estimator, target, calib);

  EXPECT_EQ(via_replay.alpha, via_full.alpha);
  EXPECT_EQ(via_replay.achieved_qoe, via_full.achieved_qoe);
  EXPECT_EQ(via_replay.iterations, via_full.iterations);
}

TEST(CalibrationReplay, RescoringSharedTrajectoryMatchesDedicatedRecording) {
  // The workbench records ONE trajectory set and calls ScoreWith once per
  // estimator (U_pi, then U_V). That is only sound if rescoring a shared
  // recording gives exactly what a dedicated recording for that estimator
  // would - and doesn't disturb results for the first estimator.
  ReplayFixtureParts f;
  abr::AbrEnvironment env(f.video, {});
  const auto first = f.MakeEstimator(2);
  const auto second = f.MakeEstimator(0);  // different discard: new scores

  CalibrationReplay<abr::AbrEnvironment> shared(
      [&] { return f.MakeLearned(); }, [&] { return f.MakeFallback(); }, env,
      f.traces, kTriggerK, kTriggerL, util::ThreadPool::Shared());
  shared.ScoreWith(first);
  const double first_hi = shared.MaxFullWindowVariance();
  const double first_qoe = shared.MeanQoeAt(first_hi * 0.4);

  shared.ScoreWith(second);
  CalibrationReplay<abr::AbrEnvironment> dedicated(
      [&] { return f.MakeLearned(); }, [&] { return f.MakeFallback(); }, env,
      f.traces, kTriggerK, kTriggerL, util::ThreadPool::Shared());
  dedicated.ScoreWith(second);
  ASSERT_EQ(shared.SessionCount(), dedicated.SessionCount());
  for (std::size_t i = 0; i < shared.SessionCount(); ++i) {
    EXPECT_EQ(shared.Session(i).variances, dedicated.Session(i).variances)
        << i;
  }
  const double second_hi = shared.MaxFullWindowVariance();
  EXPECT_EQ(second_hi, dedicated.MaxFullWindowVariance());
  EXPECT_NE(second_hi, first_hi);  // the estimators genuinely differ
  EXPECT_EQ(shared.MeanQoeAt(second_hi * 0.4),
            dedicated.MeanQoeAt(second_hi * 0.4));

  // Scoring the first estimator again restores its results exactly.
  shared.ScoreWith(first);
  EXPECT_EQ(shared.MaxFullWindowVariance(), first_hi);
  EXPECT_EQ(shared.MeanQoeAt(first_hi * 0.4), first_qoe);
}

TEST(CalibrationReplay, ParallelRecordingMatchesSerial) {
  ReplayFixtureParts f;
  abr::AbrEnvironment env(f.video, {});

  util::ParallelOptions serial;
  serial.max_workers = 0;
  CalibrationReplay<abr::AbrEnvironment> one(
      [&] { return f.MakeLearned(); }, [&] { return f.MakeFallback(); }, env,
      f.traces, kTriggerK, kTriggerL, util::ThreadPool::Shared(), serial);
  one.ScoreWith(f.MakeEstimator(2));
  util::ParallelOptions wide;
  wide.max_workers = 3;
  CalibrationReplay<abr::AbrEnvironment> many(
      [&] { return f.MakeLearned(); }, [&] { return f.MakeFallback(); }, env,
      f.traces, kTriggerK, kTriggerL, util::ThreadPool::Shared(), wide);
  many.ScoreWith(f.MakeEstimator(2));

  ASSERT_EQ(one.SessionCount(), many.SessionCount());
  for (std::size_t i = 0; i < one.SessionCount(); ++i) {
    EXPECT_EQ(one.Session(i).actions, many.Session(i).actions) << i;
    EXPECT_EQ(one.Session(i).variances, many.Session(i).variances) << i;
    EXPECT_EQ(one.Session(i).total_qoe, many.Session(i).total_qoe) << i;
  }
  const double hi = one.MaxFullWindowVariance();
  for (const double alpha : {0.0, hi * 0.3, hi * 0.8}) {
    EXPECT_EQ(one.MeanQoeAt(alpha), many.MeanQoeAt(alpha)) << alpha;
  }
}

TEST(FirstBinaryTriggerStep, ReplicatesBinaryTriggerSemantics) {
  ReplaySession session;
  // No warm-up: uncertain whenever the score is >= 0.5.
  session.scores = {1.0, 1.0, 0.0, 0.6, 0.5, 0.4, 1.0, 0.7, 0.5};
  EXPECT_EQ(FirstBinaryTriggerStep(session, /*l=*/1), 0u);
  EXPECT_EQ(FirstBinaryTriggerStep(session, /*l=*/2), 1u);
  // The t=3,4 run breaks at t=5 (0.4 < 0.5); the first l=3 run ends at 8.
  EXPECT_EQ(FirstBinaryTriggerStep(session, /*l=*/3), 8u);
  EXPECT_EQ(FirstBinaryTriggerStep(session, /*l=*/4), kReplayNoTrigger);
}

TEST(CalibrationReplay,
     BinaryTriggerQoeBitIdenticalToFullSafeAgentEvaluation) {
  // The ND calibration target is derived from the shared recording via
  // the binary trigger scan; it must match a full SafeAgent evaluation
  // with TriggerMode::kBinary exactly. The periodic estimator is
  // stateful, so this also pins ScoreWith's per-trace Reset + in-order
  // scoring contract.
  ReplayFixtureParts f;
  abr::AbrEnvironment env(f.video, {});

  CalibrationReplay<abr::AbrEnvironment> replay(
      [&] { return f.MakeLearned(); }, [&] { return f.MakeFallback(); }, env,
      f.traces, kTriggerK, kTriggerL, util::ThreadPool::Shared());
  replay.ScoreWith([]() -> std::shared_ptr<UncertaintyEstimator> {
    return std::make_shared<PeriodicBinaryEstimator>();
  });

  const double full = f.Full().BinaryTriggerQoe(
      std::make_shared<PeriodicBinaryEstimator>());

  // The pattern fires mid-trace, so this exercises real suffix replays.
  ASSERT_NE(full, Mean([&] {
              std::vector<double> totals;
              for (std::size_t i = 0; i < replay.SessionCount(); ++i) {
                totals.push_back(replay.Session(i).total_qoe);
              }
              return totals;
            }()));
  EXPECT_EQ(replay.MeanQoeAtBinaryTrigger(), full);
}

}  // namespace
}  // namespace osap::core
