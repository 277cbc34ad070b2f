// DecisionService equivalence and API tests.
//
// The load-bearing property of the serving path is bit-identity: for every
// uncertainty signal (U_S / U_pi / U_V) and both defaulting modes
// (kPermanent / kRevocable), the sharded micro-batched service must pick
// exactly the action sequence a sequential SafeAgent running each session
// alone would pick. The tests here drive full closed-loop sessions over a
// mix of in-distribution (Norway 3G) and out-of-distribution (Belgium 4G)
// traces and compare the two stacks step by step.
#include "serve/decision_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "abr/abr_environment.h"
#include "abr/video.h"
#include "core/ensemble_estimators.h"
#include "core/novelty_detector.h"
#include "core/safe_agent.h"
#include "policies/buffer_based.h"
#include "policies/pensieve_net.h"
#include "policies/pensieve_policy.h"
#include "serve/serving_model.h"
#include "traces/generators.h"
#include "util/rng.h"
#include "util/stats.h"

namespace osap::serve {
namespace {

constexpr std::size_t kSessions = 6;
constexpr std::size_t kEnsemble = 4;
constexpr std::size_t kDiscard = 1;
constexpr std::size_t kTriggerL = 2;
constexpr std::size_t kTriggerK = 4;
constexpr std::size_t kRevokeAfter = 3;

/// Trained-world fixture shared by every test in this file: a small agent
/// ensemble, a value-net ensemble, a novelty detector fitted on
/// in-distribution throughput, and a half-ID / half-OOD trace set.
struct World {
  abr::AbrStateLayout layout;
  abr::VideoSpec video = abr::MakeEnvivioLikeVideo(1);
  std::vector<std::shared_ptr<nn::ActorCriticNet>> agents;
  std::vector<std::shared_ptr<nn::CompositeNet>> value_nets;
  std::shared_ptr<core::NoveltyDetector> novelty;
  std::vector<traces::Trace> traces;
  double alpha_pi = 0.0;
  double alpha_v = 0.0;
};

std::shared_ptr<core::UncertaintyEstimator> MakeEstimator(const World& w,
                                                          Signal signal) {
  switch (signal) {
    case Signal::kNovelty: {
      // Fresh streaming state over the shared fitted OC-SVM.
      auto detector = std::make_shared<core::NoveltyDetector>(*w.novelty);
      detector->Reset();
      return detector;
    }
    case Signal::kAgentEnsemble:
      return std::make_shared<core::AgentEnsembleEstimator>(w.agents,
                                                            kDiscard);
    case Signal::kValueEnsemble:
      return std::make_shared<core::ValueEnsembleEstimator>(w.value_nets,
                                                            kDiscard);
  }
  throw std::logic_error("unreachable");
}

/// Calibrates a variance-trigger threshold from a probe run: drives every
/// trace with the deployed greedy policy, collects the k-window variances
/// of the estimator's scores and returns their 90th percentile, so the
/// trigger fires on some sessions (several mid-session) and stays quiet
/// on others (pinned by DecisionServiceEquivalenceSanity).
double CalibratedAlpha(const World& w, Signal signal) {
  auto estimator = MakeEstimator(w, signal);
  policies::PensievePolicy deployed(w.agents.front(),
                                    policies::ActionSelection::kGreedy, 0);
  std::vector<double> variances;
  for (const traces::Trace& trace : w.traces) {
    abr::AbrEnvironment env(w.video, {});
    env.SetFixedTrace(trace);
    SlidingWindowStats window(kTriggerK);
    mdp::State state = env.Reset();
    bool done = false;
    while (!done) {
      window.Push(estimator->Score(state));
      if (window.Full()) variances.push_back(window.Variance());
      mdp::StepResult result = env.Step(deployed.SelectAction(state));
      state = std::move(result.next_state);
      done = result.done;
    }
  }
  std::sort(variances.begin(), variances.end());
  return variances[variances.size() * 9 / 10];
}

const World& SharedWorld() {
  static const World* world = [] {
    auto* w = new World();
    policies::PensieveNetConfig net;
    net.conv_filters = 3;
    net.hidden = 8;
    Rng rng(17);
    for (std::size_t m = 0; m < kEnsemble; ++m) {
      w->agents.push_back(std::make_shared<nn::ActorCriticNet>(
          policies::MakePensieveActorCritic(w->layout, net, rng)));
      w->value_nets.push_back(std::make_shared<nn::CompositeNet>(
          policies::BuildPensieveNet(w->layout, 1, net, rng)));
    }

    // Viewers alternate between the distribution the detector is fitted
    // to (Norway 3G) and an out-of-distribution network (Belgium 4G).
    const auto id_gen = traces::MakeNorway3gGenerator();
    const auto ood_gen = traces::MakeBelgium4gGenerator();
    Rng trace_rng(29);
    for (std::size_t i = 0; i < kSessions; ++i) {
      const auto& gen = i % 2 == 0 ? id_gen : ood_gen;
      w->traces.push_back(gen->Generate(trace_rng, 200.0, i));
    }

    core::NoveltyDetectorConfig nd;
    nd.throughput_window = 3;
    nd.k = 2;
    std::vector<std::vector<double>> features;
    for (std::size_t i = 0; i < 4; ++i) {
      const traces::Trace t = id_gen->Generate(trace_rng, 400.0, 100 + i);
      const auto session_features =
          core::NoveltyDetector::ExtractFeatures(t.samples(), nd);
      features.insert(features.end(), session_features.begin(),
                      session_features.end());
    }
    w->novelty = std::make_shared<core::NoveltyDetector>(nd, w->layout);
    w->novelty->Fit(features);

    w->alpha_pi = CalibratedAlpha(*w, Signal::kAgentEnsemble);
    w->alpha_v = CalibratedAlpha(*w, Signal::kValueEnsemble);
    return w;
  }();
  return *world;
}

core::SafeAgentConfig ConfigFor(const World& w, Signal signal,
                                core::DefaultingMode mode) {
  core::SafeAgentConfig config;
  config.trigger.l = kTriggerL;
  config.trigger.k = kTriggerK;
  config.mode = mode;
  config.revoke_after = kRevokeAfter;
  switch (signal) {
    case Signal::kNovelty:
      config.trigger.mode = core::TriggerMode::kBinary;
      break;
    case Signal::kAgentEnsemble:
      config.trigger.mode = core::TriggerMode::kWindowVariance;
      config.trigger.alpha = w.alpha_pi;
      break;
    case Signal::kValueEnsemble:
      config.trigger.mode = core::TriggerMode::kWindowVariance;
      config.trigger.alpha = w.alpha_v;
      break;
  }
  return config;
}

std::shared_ptr<const ServingModel> ModelFor(const World& w, Signal signal,
                                             core::SafeAgentConfig config) {
  switch (signal) {
    case Signal::kNovelty:
      return ServingModel::Novelty(w.agents, w.novelty, w.video, w.layout,
                                   config);
    case Signal::kAgentEnsemble:
      return ServingModel::AgentEnsemble(w.agents, kDiscard, w.video,
                                         w.layout, config);
    case Signal::kValueEnsemble:
      return ServingModel::ValueEnsemble(w.agents, w.value_nets, kDiscard,
                                         w.video, w.layout, config);
  }
  throw std::logic_error("unreachable");
}

struct SessionOutcome {
  std::vector<mdp::Action> actions;
  bool defaulted = false;
  std::size_t steps = 0;
  std::size_t default_step = 0;
  double defaulted_fraction = 0.0;
};

/// Reference arm: one sequential SafeAgent per session, run to completion.
std::vector<SessionOutcome> RunSequential(const World& w, Signal signal,
                                          core::DefaultingMode mode) {
  const core::SafeAgentConfig config = ConfigFor(w, signal, mode);
  std::vector<SessionOutcome> outcomes(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    core::SafeAgent agent(
        std::make_shared<policies::PensievePolicy>(
            w.agents.front(), policies::ActionSelection::kGreedy, 0),
        std::make_shared<policies::BufferBasedPolicy>(w.video, w.layout),
        MakeEstimator(w, signal), config);
    abr::AbrEnvironment env(w.video, {});
    env.SetFixedTrace(w.traces[i]);
    mdp::State state = env.Reset();
    bool done = false;
    while (!done) {
      const mdp::Action action = agent.SelectAction(state);
      outcomes[i].actions.push_back(action);
      mdp::StepResult result = env.Step(action);
      state = std::move(result.next_state);
      done = result.done;
    }
    outcomes[i].defaulted = agent.Defaulted();
    outcomes[i].steps = agent.StepCount();
    outcomes[i].default_step = agent.DefaultStep();
    outcomes[i].defaulted_fraction = agent.DefaultedFraction();
  }
  return outcomes;
}

/// Which sessions each DecideBatch round of the serving arm carries.
enum class Schedule {
  /// Every live session, in REVERSE session order, to exercise the
  /// request-index scatter (answer order must follow the request span,
  /// not session ids).
  kDense,
  /// 0-3 random live sessions, shuffled; every 150th round carries every
  /// live session. Yields empty rounds, one-shard rounds, and lanes that
  /// reach the scratch-shrink check.
  kSparse,
};

/// Mirrors DecisionService::kLaneShrinkEpochs: a lane runs its scratch
/// shrink check on every 64th non-empty round.
constexpr std::size_t kShrinkEpochs = 64;

struct ServiceRun {
  std::vector<SessionOutcome> outcomes;
  std::size_t empty_rounds = 0;
  std::size_t one_shard_rounds = 0;
  std::size_t max_lane_rounds = 0;  // non-empty rounds of the busiest lane
};

/// Serving arm: all sessions advance through DecideBatch rounds chosen
/// by `schedule` until every session has finished.
ServiceRun RunService(const World& w, Signal signal, core::DefaultingMode mode,
                      DecisionServiceConfig service_config,
                      Schedule schedule) {
  DecisionService service(ModelFor(w, signal, ConfigFor(w, signal, mode)),
                          service_config);
  std::vector<DecisionService::SessionId> ids(kSessions);
  std::vector<abr::AbrEnvironment> envs;
  envs.reserve(kSessions);
  std::vector<mdp::State> states(kSessions);
  std::vector<bool> done(kSessions, false);
  for (std::size_t i = 0; i < kSessions; ++i) {
    ids[i] = service.OpenSession();
    envs.emplace_back(w.video, abr::AbrEnvironmentConfig{});
    envs[i].SetFixedTrace(w.traces[i]);
    states[i] = envs[i].Reset();
  }

  ServiceRun run;
  run.outcomes.resize(kSessions);
  Rng rng(41 + service_config.shard_count);
  std::vector<std::size_t> lane_rounds(service_config.shard_count, 0);
  std::vector<DecisionService::Request> requests;
  std::vector<mdp::Action> answers;
  std::vector<std::size_t> request_session;
  for (std::size_t round = 0;; ++round) {
    request_session.clear();
    for (std::size_t r = kSessions; r-- > 0;) {
      if (!done[r]) request_session.push_back(r);
    }
    if (request_session.empty()) break;
    if (schedule == Schedule::kSparse && round % 150 != 149) {
      rng.Shuffle(request_session);
      request_session.resize(std::min<std::size_t>(request_session.size(),
                                                   rng.UniformInt(4)));
    }
    requests.clear();
    std::vector<bool> touched(service_config.shard_count, false);
    for (const std::size_t r : request_session) {
      requests.push_back({ids[r], &states[r]});
      touched[service.ShardOfSession(ids[r])] = true;
    }
    const auto lanes = static_cast<std::size_t>(
        std::count(touched.begin(), touched.end(), true));
    run.empty_rounds += lanes == 0;
    run.one_shard_rounds += lanes == 1;
    for (std::size_t s = 0; s < touched.size(); ++s) {
      lane_rounds[s] += touched[s];
    }

    answers.resize(requests.size());
    service.DecideBatch(requests, answers);
    for (std::size_t j = 0; j < requests.size(); ++j) {
      const std::size_t i = request_session[j];
      run.outcomes[i].actions.push_back(answers[j]);
      mdp::StepResult result = envs[i].Step(answers[j]);
      states[i] = std::move(result.next_state);
      done[i] = result.done;
    }
  }
  for (std::size_t i = 0; i < kSessions; ++i) {
    run.outcomes[i].defaulted = service.Defaulted(ids[i]);
    run.outcomes[i].steps = service.StepCount(ids[i]);
    run.outcomes[i].defaulted_fraction = service.DefaultedFraction(ids[i]);
  }
  run.max_lane_rounds =
      *std::max_element(lane_rounds.begin(), lane_rounds.end());
  return run;
}

ServiceRun ExpectBitIdentical(const World& w, Signal signal,
                              core::DefaultingMode mode,
                              DecisionServiceConfig service_config,
                              Schedule schedule) {
  const std::vector<SessionOutcome> expected = RunSequential(w, signal, mode);
  ServiceRun run = RunService(w, signal, mode, service_config, schedule);
  const std::vector<SessionOutcome>& actual = run.outcomes;
  EXPECT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size() && i < actual.size(); ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    EXPECT_EQ(expected[i].actions, actual[i].actions);
    EXPECT_EQ(expected[i].defaulted, actual[i].defaulted);
    EXPECT_EQ(expected[i].steps, actual[i].steps);
    // Exact: both fractions are the same integer ratio.
    EXPECT_EQ(expected[i].defaulted_fraction, actual[i].defaulted_fraction);
  }
  return run;
}

class DecisionServiceEquivalence
    : public ::testing::TestWithParam<
          std::tuple<Signal, core::DefaultingMode>> {};

TEST_P(DecisionServiceEquivalence, MatchesSequentialSafeAgent) {
  const auto [signal, mode] = GetParam();
  DecisionServiceConfig config;
  config.shard_count = 3;
  ExpectBitIdentical(SharedWorld(), signal, mode, config, Schedule::kDense);
}

TEST_P(DecisionServiceEquivalence, MatchesOnSparseRounds) {
  // Sparse rounds: most touch no shard or one shard, and the busiest lane
  // runs enough non-empty rounds to reach its scratch-shrink check.
  const auto [signal, mode] = GetParam();
  for (const std::size_t shards : {2u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    DecisionServiceConfig config;
    config.shard_count = shards;
    const ServiceRun run = ExpectBitIdentical(SharedWorld(), signal, mode,
                                              config, Schedule::kSparse);
    EXPECT_GT(run.empty_rounds, 0u);
    EXPECT_GT(run.one_shard_rounds, 0u);
    EXPECT_GE(run.max_lane_rounds, kShrinkEpochs);
  }
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<Signal, core::DefaultingMode>>&
        info) {
  const auto [signal, mode] = info.param;
  std::string name;
  switch (signal) {
    case Signal::kNovelty: name = "Novelty"; break;
    case Signal::kAgentEnsemble: name = "AgentEnsemble"; break;
    case Signal::kValueEnsemble: name = "ValueEnsemble"; break;
  }
  name += mode == core::DefaultingMode::kPermanent ? "Permanent"
                                                   : "Revocable";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllSignalsBothModes, DecisionServiceEquivalence,
    ::testing::Combine(::testing::Values(Signal::kNovelty,
                                         Signal::kAgentEnsemble,
                                         Signal::kValueEnsemble),
                       ::testing::Values(core::DefaultingMode::kPermanent,
                                         core::DefaultingMode::kRevocable)),
    ParamName);

TEST(DecisionServiceEquivalenceSanity, OutOfDistributionSessionsDefault) {
  // The equivalence runs are only meaningful if the trigger actually
  // fires somewhere, for every signal: some viewers must default while at
  // least one stays on the learned policy, and at least one must default
  // mid-session, so the kPermanent arms answer its remaining steps
  // through the serving path's defaulted-session skip (and the
  // kRevocable arms keep scoring them).
  const World& w = SharedWorld();
  for (const Signal signal : {Signal::kNovelty, Signal::kAgentEnsemble,
                              Signal::kValueEnsemble}) {
    SCOPED_TRACE("signal " + std::to_string(static_cast<int>(signal)));
    const auto outcomes =
        RunSequential(w, signal, core::DefaultingMode::kPermanent);
    std::size_t defaulted = 0;
    std::size_t mid_session = 0;
    for (const auto& outcome : outcomes) {
      defaulted += outcome.defaulted;
      mid_session += outcome.defaulted && outcome.default_step > 0 &&
                     outcome.default_step + 1 < outcome.steps;
    }
    EXPECT_GE(defaulted, 1u);
    EXPECT_LT(defaulted, kSessions);
    EXPECT_GE(mid_session, 1u);
  }
}

// One decision per session per round: a session's second request in one
// batch is deferred (left unanswered and returned), not decided, and the
// caller's re-submission decides it.
TEST(DecisionServiceApi, DuplicateSessionInOneBatchIsDeferred) {
  const World& w = SharedWorld();
  DecisionService service(ModelFor(
      w, Signal::kAgentEnsemble,
      ConfigFor(w, Signal::kAgentEnsemble, core::DefaultingMode::kPermanent)));
  const auto id = service.OpenSession();
  const mdp::State state(w.layout.Size(), 0.0);
  const DecisionService::Request requests[] = {{id, &state}, {id, &state}};
  constexpr mdp::Action kUnanswered = -1;
  mdp::Action out[2] = {kUnanswered, kUnanswered};
  const std::span<const std::size_t> deferred =
      service.DecideBatch(requests, out);
  EXPECT_EQ(std::vector<std::size_t>(deferred.begin(), deferred.end()),
            std::vector<std::size_t>{1});
  EXPECT_NE(out[0], kUnanswered);
  EXPECT_EQ(out[1], kUnanswered);
  EXPECT_EQ(service.StepCount(id), 1u);

  EXPECT_TRUE(service.DecideBatch({&requests[1], 1}, {&out[1], 1}).empty());
  EXPECT_NE(out[1], kUnanswered);
  EXPECT_EQ(service.StepCount(id), 2u);
}

TEST(DecisionServiceApi, UnknownSessionThrows) {
  const World& w = SharedWorld();
  DecisionService service(ModelFor(
      w, Signal::kAgentEnsemble,
      ConfigFor(w, Signal::kAgentEnsemble, core::DefaultingMode::kPermanent)));
  const mdp::State state(w.layout.Size(), 0.0);
  EXPECT_THROW(service.Decide(0, state), std::invalid_argument);
  const auto id = service.OpenSession();
  service.CloseSession(id);
  EXPECT_THROW(service.Decide(id, state), std::invalid_argument);
  EXPECT_THROW(service.CloseSession(id), std::invalid_argument);
}

TEST(DecisionServiceApi, MissizedStateThrows) {
  const World& w = SharedWorld();
  DecisionService service(ModelFor(
      w, Signal::kAgentEnsemble,
      ConfigFor(w, Signal::kAgentEnsemble, core::DefaultingMode::kPermanent)));
  const auto id = service.OpenSession();
  const mdp::State tiny(2, 0.0);
  EXPECT_THROW(service.Decide(id, tiny), std::invalid_argument);
}

TEST(DecisionServiceApi, EmptyBatchIsANoOp) {
  const World& w = SharedWorld();
  DecisionService service(ModelFor(
      w, Signal::kAgentEnsemble,
      ConfigFor(w, Signal::kAgentEnsemble, core::DefaultingMode::kPermanent)));
  service.DecideBatch({}, {});
  EXPECT_EQ(service.ActiveSessionCount(), 0u);
}

TEST(DecisionServiceApi, RecycledSlotStartsFresh) {
  const World& w = SharedWorld();
  DecisionService service(ModelFor(
      w, Signal::kAgentEnsemble,
      ConfigFor(w, Signal::kAgentEnsemble, core::DefaultingMode::kPermanent)));
  const auto id = service.OpenSession();
  const mdp::State state(w.layout.Size(), 0.0);
  service.Decide(id, state);
  service.Decide(id, state);
  EXPECT_EQ(service.StepCount(id), 2u);
  service.CloseSession(id);
  EXPECT_EQ(service.ActiveSessionCount(), 0u);
  const auto recycled = service.OpenSession();
  EXPECT_EQ(recycled, id);
  EXPECT_EQ(service.StepCount(recycled), 0u);
  EXPECT_FALSE(service.Defaulted(recycled));
}

TEST(DecisionServiceApi, SessionBookkeeping) {
  const World& w = SharedWorld();
  DecisionService service(
      ModelFor(w, Signal::kValueEnsemble,
               ConfigFor(w, Signal::kValueEnsemble,
                         core::DefaultingMode::kPermanent)),
      DecisionServiceConfig{.shard_count = 3});
  EXPECT_EQ(service.ShardCount(), 3u);
  const auto a = service.OpenSession();
  const auto b = service.OpenSession();
  const auto c = service.OpenSession();
  EXPECT_EQ(service.ActiveSessionCount(), 3u);
  service.CloseSession(b);
  EXPECT_EQ(service.ActiveSessionCount(), 2u);
  EXPECT_NE(a, c);
}

TEST(DecisionServiceApi, SingleSubmitterIdsRecycleMostRecentFirst) {
  // One submitter group hands out ids 0, 1, 2, ... across the shards and
  // recycles the most recently closed id first.
  const World& w = SharedWorld();
  DecisionService service(
      ModelFor(w, Signal::kAgentEnsemble,
               ConfigFor(w, Signal::kAgentEnsemble,
                         core::DefaultingMode::kPermanent)),
      DecisionServiceConfig{.shard_count = 3});
  for (DecisionService::SessionId id = 0; id < 5; ++id) {
    EXPECT_EQ(service.OpenSession(), id);
  }
  service.CloseSession(1);
  service.CloseSession(3);
  EXPECT_EQ(service.OpenSession(), 3u);
  EXPECT_EQ(service.OpenSession(), 1u);
  EXPECT_EQ(service.OpenSession(), 5u);
}

TEST(DecisionServiceMemory, UpiSessionsFitTheBudget) {
  // The memory-diet contract: a U_pi session is SafetyState + its
  // variance-trigger ring + a few registry bytes - no extractor, no
  // per-session heap objects. 256 B/session leaves room for vector
  // capacity slack (growth doubling) on top of the ~100 B of state.
  const World& w = SharedWorld();
  DecisionService service(
      ModelFor(w, Signal::kAgentEnsemble,
               ConfigFor(w, Signal::kAgentEnsemble,
                         core::DefaultingMode::kPermanent)),
      DecisionServiceConfig{.shard_count = 4});
  constexpr std::size_t kMany = 10000;
  for (std::size_t i = 0; i < kMany; ++i) service.OpenSession();

  const ServiceMemoryStats stats = service.MemoryStats();
  EXPECT_EQ(stats.open_sessions, kMany);
  EXPECT_EQ(stats.extractor_bytes, 0u)
      << "U_pi sessions must pay zero extractor bytes";
  // Every open session owns exactly ring_width doubles of trigger window.
  EXPECT_GE(stats.trigger_ring_bytes, kMany * kTriggerK * sizeof(double));
  EXPECT_GE(stats.session_hot_bytes, kMany * sizeof(core::SafetyState));
  EXPECT_GE(stats.session_cold_bytes, kMany * sizeof(core::SafetyCold));
  // The registry counts every open session's submitter tag (the wire
  // edge's per-session state), open flag and round stamp.
  EXPECT_GE(stats.registry_bytes,
            kMany * (sizeof(DecisionService::SubmitterTag) +
                     sizeof(std::uint8_t) + sizeof(std::uint64_t)));
  EXPECT_LE(stats.BytesPerSession(), 256.0)
      << "hot " << stats.session_hot_bytes << " cold "
      << stats.session_cold_bytes << " rings " << stats.trigger_ring_bytes
      << " registry " << stats.registry_bytes;
}

TEST(DecisionServiceMemory, NoveltySessionsFitTheBudget) {
  // U_S adds the slab-pooled extractor (window + pair ring carved from
  // the slab) but drops the trigger ring (binary trigger): the budget is
  // 512 B/session including slab rounding and capacity slack.
  const World& w = SharedWorld();
  DecisionService service(
      ModelFor(
          w, Signal::kNovelty,
          ConfigFor(w, Signal::kNovelty, core::DefaultingMode::kPermanent)),
      DecisionServiceConfig{.shard_count = 4});
  constexpr std::size_t kMany = 10000;
  for (std::size_t i = 0; i < kMany; ++i) service.OpenSession();

  const ServiceMemoryStats stats = service.MemoryStats();
  EXPECT_EQ(stats.open_sessions, kMany);
  EXPECT_EQ(stats.trigger_ring_bytes, 0u)
      << "binary-trigger sessions must pay zero ring bytes";
  EXPECT_GT(stats.extractor_bytes, 0u);
  EXPECT_LE(stats.BytesPerSession(), 512.0);
}

TEST(DecisionServiceMemory, ScratchShrinksAfterASpike) {
  // The scratch diet: one 4096-session round grows every lane's packed
  // matrices and arena; two shrink periods of 8-session rounds later the
  // lanes must have handed most of it back.
  const World& w = SharedWorld();
  DecisionService service(
      ModelFor(w, Signal::kAgentEnsemble,
               ConfigFor(w, Signal::kAgentEnsemble,
                         core::DefaultingMode::kPermanent)),
      DecisionServiceConfig{.shard_count = 2});
  constexpr std::size_t kSpike = 4096;
  constexpr std::size_t kTrickle = 8;
  const mdp::State state(w.layout.Size(), 0.0);
  std::vector<DecisionService::Request> requests;
  for (std::size_t i = 0; i < kSpike; ++i) {
    requests.push_back({service.OpenSession(), &state});
  }
  std::vector<mdp::Action> out(kSpike);
  service.DecideBatch(requests, out);
  const std::size_t spike_scratch = service.MemoryStats().scratch_bytes;

  requests.resize(kTrickle);
  for (std::size_t round = 0; round < 128; ++round) {
    service.DecideBatch(requests, out);
  }
  EXPECT_LT(service.MemoryStats().scratch_bytes, spike_scratch / 2)
      << "post-spike scratch " << spike_scratch;
}

TEST(DecisionServiceApi, InvalidConstructionThrows) {
  const World& w = SharedWorld();
  EXPECT_THROW(DecisionService(nullptr), std::invalid_argument);
  EXPECT_THROW(
      DecisionService(
          ModelFor(w, Signal::kAgentEnsemble,
                   ConfigFor(w, Signal::kAgentEnsemble,
                             core::DefaultingMode::kPermanent)),
          DecisionServiceConfig{.shard_count = 0}),
      std::invalid_argument);
}

}  // namespace
}  // namespace osap::serve
