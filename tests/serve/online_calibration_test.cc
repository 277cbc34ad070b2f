// DecisionService online-calibration arm (DESIGN.md §11).
//
// Four properties: (1) before the first sketch publication the online
// arm is BIT-IDENTICAL to the frozen service (the live threshold starts
// at the model's trigger alpha, and SafetyObserveLive is the same
// arithmetic SafetyObserve forwards to); (2) once lanes publish at the
// refresh cadence, the live threshold moves to the sketches' quantile
// and the coverage counters advance; (3) only sessions still on the
// learned policy feed the sketches - defaulted sessions never do; (4)
// the config is validated up front (window-variance triggers only,
// epsilon in (0,1)).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "abr/abr_environment.h"
#include "abr/video.h"
#include "core/ensemble_estimators.h"
#include "policies/pensieve_net.h"
#include "serve/decision_service.h"
#include "serve/serving_model.h"
#include "traces/generators.h"

namespace osap::serve {
namespace {

constexpr std::size_t kSessions = 6;
constexpr std::size_t kEnsemble = 3;
constexpr std::size_t kDiscard = 1;
constexpr std::size_t kTriggerK = 4;
constexpr std::size_t kTriggerL = 2;

struct World {
  abr::AbrStateLayout layout;
  abr::VideoSpec video = abr::MakeEnvivioLikeVideo(1);
  std::vector<std::shared_ptr<nn::ActorCriticNet>> agents;
  std::vector<traces::Trace> traces;
};

const World& SharedWorld() {
  static const World* world = [] {
    auto* w = new World();
    policies::PensieveNetConfig net;
    net.conv_filters = 3;
    net.hidden = 8;
    Rng rng(41);
    for (std::size_t m = 0; m < kEnsemble; ++m) {
      w->agents.push_back(std::make_shared<nn::ActorCriticNet>(
          policies::MakePensieveActorCritic(w->layout, net, rng)));
    }
    const auto id_gen = traces::MakeNorway3gGenerator();
    const auto ood_gen = traces::MakeBelgium4gGenerator();
    Rng trace_rng(43);
    for (std::size_t i = 0; i < kSessions; ++i) {
      const auto& gen = i % 2 == 0 ? id_gen : ood_gen;
      w->traces.push_back(gen->Generate(trace_rng, 200.0, i));
    }
    return w;
  }();
  return *world;
}

std::shared_ptr<const ServingModel> UpiModel(const World& w, double alpha) {
  core::SafeAgentConfig config;
  config.trigger.mode = core::TriggerMode::kWindowVariance;
  config.trigger.k = kTriggerK;
  config.trigger.l = kTriggerL;
  config.trigger.alpha = alpha;
  return ServingModel::AgentEnsemble(w.agents, kDiscard, w.video, w.layout,
                                     config);
}

/// Streams every session to completion through lockstep DecideBatch
/// rounds; returns each session's action sequence. `before_round`, when
/// set, sees each round's requests just before they are decided.
std::vector<std::vector<mdp::Action>> RunSessions(
    DecisionService& service, const World& w,
    const std::function<void(std::span<const DecisionService::Request>)>&
        before_round = {}) {
  std::vector<DecisionService::SessionId> ids(kSessions);
  std::vector<abr::AbrEnvironment> envs;
  std::vector<mdp::State> states(kSessions);
  std::vector<bool> done(kSessions, false);
  for (std::size_t i = 0; i < kSessions; ++i) {
    ids[i] = service.OpenSession();
    envs.emplace_back(w.video, abr::AbrEnvironmentConfig{});
    envs[i].SetFixedTrace(w.traces[i]);
    states[i] = envs[i].Reset();
  }
  std::vector<std::vector<mdp::Action>> actions(kSessions);
  std::vector<DecisionService::Request> requests;
  std::vector<mdp::Action> answers;
  std::vector<std::size_t> of;
  while (true) {
    requests.clear();
    of.clear();
    for (std::size_t i = 0; i < kSessions; ++i) {
      if (done[i]) continue;
      requests.push_back({ids[i], &states[i]});
      of.push_back(i);
    }
    if (requests.empty()) break;
    answers.resize(requests.size());
    if (before_round) before_round(requests);
    service.DecideBatch(requests, answers);
    for (std::size_t j = 0; j < requests.size(); ++j) {
      const std::size_t i = of[j];
      actions[i].push_back(answers[j]);
      mdp::StepResult r = envs[i].Step(answers[j]);
      states[i] = std::move(r.next_state);
      done[i] = r.done;
    }
  }
  return actions;
}

TEST(OnlineCalibration, BitIdenticalToFrozenServiceBeforeFirstPublish) {
  const World& w = SharedWorld();
  const double alpha = 1e-4;  // fires on some sessions, not all

  DecisionServiceConfig frozen_cfg;
  frozen_cfg.shard_count = 2;
  DecisionService frozen(UpiModel(w, alpha), frozen_cfg);
  const auto expected = RunSessions(frozen, w);

  DecisionServiceConfig online_cfg;
  online_cfg.shard_count = 2;
  online_cfg.online_calibration = true;
  // Publication pushed past the run's epoch count: the live threshold
  // stays at the frozen alpha for the whole run.
  online_cfg.calibration_refresh_epochs = 1u << 30;
  DecisionService online(UpiModel(w, alpha), online_cfg);
  EXPECT_TRUE(online.OnlineCalibration());
  EXPECT_EQ(online.LiveAlpha(), alpha);
  const auto actual = RunSessions(online, w);

  EXPECT_EQ(actual, expected);
  EXPECT_EQ(online.LiveAlpha(), alpha);  // never published
  // Counters publish with the sketches; none happened.
  EXPECT_EQ(online.CalibrationObservations(), 0u);
}

TEST(OnlineCalibration, PublishesSketchQuantileAndCoverageCounters) {
  const World& w = SharedWorld();
  const double frozen_alpha = 1e-4;

  DecisionServiceConfig cfg;
  cfg.shard_count = 2;
  cfg.online_calibration = true;
  cfg.calibration_miscoverage = 0.25;
  cfg.calibration_window = 64;
  cfg.calibration_refresh_epochs = 2;  // publish early and often
  DecisionService service(UpiModel(w, frozen_alpha), cfg);
  RunSessions(service, w);

  // Hundreds of decision epochs ran: every lane published, the counters
  // moved, and the live threshold is now the sketches' quantile - a real
  // full-window variance, not the frozen seed.
  EXPECT_GT(service.CalibrationObservations(), 0u);
  EXPECT_GE(service.CalibrationObservations(),
            service.CalibrationExceedances());
  EXPECT_NE(service.LiveAlpha(), frozen_alpha);
  EXPECT_GE(service.LiveAlpha(), 0.0);

  // The published exceedance share is a plausible miscoverage estimate
  // (not degenerate all-or-nothing once the threshold warmed up).
  const double rate =
      static_cast<double>(service.CalibrationExceedances()) /
      static_cast<double>(service.CalibrationObservations());
  EXPECT_GE(rate, 0.0);
  EXPECT_LT(rate, 0.9);
}

TEST(OnlineCalibration, DefaultedSessionsFeedNoSketch) {
  // The trust gate (DESIGN.md §11.2): only sessions still on the learned
  // policy feed the sketches. A kPermanent session that has defaulted is
  // answered before scoring and yields no trigger statistic; a live one
  // yields exactly one once its k-window is full. With every lane epoch
  // publishing, the observation counter after each round is therefore
  // the running count of (live, window full this step) requests.
  const World& w = SharedWorld();
  DecisionServiceConfig cfg;
  cfg.shard_count = 2;
  cfg.online_calibration = true;
  cfg.calibration_miscoverage = 0.25;
  cfg.calibration_window = 64;
  cfg.calibration_refresh_epochs = 1;
  DecisionService service(UpiModel(w, 1e-4), cfg);
  std::uint64_t expected = 0;
  std::size_t defaulted_requests = 0;
  RunSessions(service, w,
              [&](std::span<const DecisionService::Request> round) {
                EXPECT_EQ(service.CalibrationObservations(), expected);
                for (const DecisionService::Request& r : round) {
                  if (service.Defaulted(r.session)) {
                    ++defaulted_requests;
                  } else if (service.StepCount(r.session) + 1 >= kTriggerK) {
                    ++expected;
                  }
                }
              });
  EXPECT_EQ(service.CalibrationObservations(), expected);
  // The rule was exercised: defaulted sessions kept requesting decisions.
  EXPECT_GT(defaulted_requests, 0u);
  EXPECT_GT(expected, 0u);
}

TEST(OnlineCalibration, MemoryStatsCountSketchScratch) {
  const World& w = SharedWorld();
  DecisionServiceConfig cfg;
  cfg.shard_count = 2;
  cfg.online_calibration = true;
  DecisionService with(UpiModel(w, 1e-4), cfg);
  DecisionServiceConfig plain_cfg;
  plain_cfg.shard_count = 2;
  DecisionService without(UpiModel(w, 1e-4), plain_cfg);
  EXPECT_GT(with.MemoryStats().scratch_bytes,
            without.MemoryStats().scratch_bytes);
}

TEST(OnlineCalibration, RejectsBinaryTriggerAndBadConfig) {
  const World& w = SharedWorld();
  core::SafeAgentConfig binary;
  binary.trigger.mode = core::TriggerMode::kBinary;
  binary.trigger.l = kTriggerL;
  auto nd_like = ServingModel::AgentEnsemble(w.agents, kDiscard, w.video,
                                             w.layout, binary);
  DecisionServiceConfig cfg;
  cfg.online_calibration = true;
  EXPECT_THROW(DecisionService(nd_like, cfg), std::invalid_argument);

  DecisionServiceConfig bad_eps;
  bad_eps.online_calibration = true;
  bad_eps.calibration_miscoverage = 1.5;
  EXPECT_THROW(DecisionService(UpiModel(w, 1e-4), bad_eps),
               std::invalid_argument);

  DecisionServiceConfig zero_window;
  zero_window.online_calibration = true;
  zero_window.calibration_window = 0;
  EXPECT_THROW(DecisionService(UpiModel(w, 1e-4), zero_window),
               std::invalid_argument);
}

}  // namespace
}  // namespace osap::serve
