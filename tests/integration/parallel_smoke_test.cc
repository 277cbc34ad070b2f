// Sanitizer smoke test: a small, fast exercise of every concurrent code
// path - pooled ParallelFor, parallel multi-trace evaluation, and
// concurrent inference on shared nets - sized to finish quickly under
// ThreadSanitizer (build with -DOSAP_SANITIZE=thread, then
// `ctest -L sanitize`).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "abr/abr_environment.h"
#include "core/evaluation.h"
#include "nn/ensemble_forward.h"
#include "policies/buffer_based.h"
#include "policies/pensieve_net.h"
#include "rl/a2c.h"
#include "traces/generators.h"
#include "util/thread_pool.h"

namespace osap {
namespace {

TEST(ParallelSmoke, PooledEvaluationOverGeneratedTraces) {
  Rng rng(3);
  const auto gen = traces::MakeNorway3gGenerator();
  std::vector<traces::Trace> traces;
  for (std::size_t i = 0; i < 8; ++i) {
    traces.push_back(gen->Generate(rng, 120.0, i));
  }

  const abr::VideoSpec video = abr::MakeEnvivioLikeVideo(1);
  abr::AbrEnvironment env(video, {});
  abr::AbrStateLayout layout;
  util::ThreadPool pool(3);

  policies::BufferBasedPolicy serial_policy(video, layout);
  const core::EvalResult serial =
      core::EvaluatePolicy(serial_policy, env, traces);
  const core::EvalResult parallel = core::EvaluatePolicyParallel(
      [&] { return std::make_shared<policies::BufferBasedPolicy>(video,
                                                                 layout); },
      env, traces, pool);
  ASSERT_EQ(serial.per_trace_qoe.size(), parallel.per_trace_qoe.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(serial.per_trace_qoe[i], parallel.per_trace_qoe[i]);
  }
}

TEST(ParallelSmoke, SharedNetConcurrentInference) {
  // Many threads querying one shared network through the const Infer path
  // (the situation SafeAgent ensembles are in during pooled evaluation).
  Rng rng(5);
  abr::AbrStateLayout layout;
  std::vector<std::unique_ptr<nn::ActorCriticNet>> members;
  std::vector<const nn::CompositeNet*> actors;
  for (int m = 0; m < 3; ++m) {
    members.push_back(std::make_unique<nn::ActorCriticNet>(
        policies::MakePensieveActorCritic(layout, {}, rng)));
    actors.push_back(&members.back()->actor());
  }
  const nn::BatchedEnsemble batched(actors);
  const std::vector<double> state(layout.Size(), 0.25);
  const nn::Matrix packed(1, state.size(), state);

  const std::vector<double> reference = members[0]->ActionProbs(state);
  util::ThreadPool pool(3);
  std::atomic<int> mismatches{0};
  pool.ParallelFor(0, 64, [&](std::size_t) {
    nn::InferScratch scratch;
    (void)batched.InferBatch(packed, scratch);
    const std::vector<double> probs = members[0]->ActionProbs(state);
    if (probs != reference) mismatches.fetch_add(1);
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ParallelSmoke, ParallelA2cTrainingOnAbrEnvironment) {
  // A small end-to-end run of the batched-update A2C trainer on the real
  // ABR environment: per-slot clones, concurrent episode collection, and
  // the fixed-order gradient reduction all under the sanitizer, with the
  // thread-count bit-identity asserted at the end.
  Rng trace_rng(9);
  const auto gen = traces::MakeNorway3gGenerator();
  std::vector<traces::Trace> traces;
  for (std::size_t i = 0; i < 4; ++i) {
    traces.push_back(gen->Generate(trace_rng, 120.0, i));
  }
  const abr::VideoSpec video = abr::MakeEnvivioLikeVideo(1);
  abr::AbrEnvironmentConfig env_cfg;
  abr::AbrEnvironment env(video, env_cfg);
  env.SetTracePool(traces, 77);

  rl::A2cConfig cfg;
  cfg.episodes = 4;
  cfg.rollouts_per_update = 2;
  cfg.seed = 21;
  const rl::ActorCriticCloneFactory clone_net = [&env_cfg]() {
    Rng scratch(0);
    return policies::MakePensieveActorCritic(env_cfg.layout, {}, scratch);
  };
  const rl::EpisodeEnvFactory env_for_episode = [&env](std::size_t e) {
    auto copy = std::make_unique<abr::AbrEnvironment>(env);
    copy->SkipPoolEpisodes(e);
    return std::unique_ptr<mdp::Environment>(std::move(copy));
  };

  auto train = [&](std::size_t workers) {
    Rng init(55);
    auto net = std::make_unique<nn::ActorCriticNet>(
        policies::MakePensieveActorCritic(env_cfg.layout, {}, init));
    util::ThreadPool pool(workers);
    rl::TrainA2cParallel(*net, clone_net, env_for_episode, cfg, pool);
    return net;
  };
  const auto serial_net = train(0);
  const auto parallel_net = train(3);

  auto serial_params = serial_net->AllParams();
  auto parallel_params = parallel_net->AllParams();
  ASSERT_EQ(serial_params.size(), parallel_params.size());
  for (std::size_t i = 0; i < serial_params.size(); ++i) {
    EXPECT_EQ(serial_params[i]->value.values(),
              parallel_params[i]->value.values())
        << "param " << i;
  }
}

}  // namespace
}  // namespace osap
