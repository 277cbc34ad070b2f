// osap_train: train a Pensieve actor-critic from the command line and save
// the weights for later evaluation with osap_eval.
//
// Usage:
//   osap_train <dataset> <out.bin> [episodes] [seed] [rollouts_per_update]
//
// Trains on the dataset's training split (full-length 240-chunk sessions)
// and reports progress every 10% of episodes. The weight file is the
// library's OSAPNN01 format (nn/serialize.h).
//
// With --calibrate the tool follows training with the deploy pipeline's
// threshold-calibration step: it trains/loads the Workbench bundle for
// the dataset into ./osap_cache (what osap_serve serves from there) and
// prints the calibrated alpha_pi / alpha_v next to the ND target.
// The alphas come from the replay bisection, the workbench's only
// threshold search (DESIGN.md §11).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "core/evaluation.h"
#include "core/workbench.h"
#include "nn/serialize.h"
#include "policies/buffer_based.h"
#include "policies/pensieve_net.h"
#include "policies/pensieve_policy.h"
#include "rl/a2c.h"
#include "traces/dataset.h"
#include "util/arg_parser.h"

using namespace osap;

int main(int argc, char** argv) {
  std::string dataset;
  std::string out_path;
  std::size_t episodes = 2000;
  std::size_t seed = 1;
  // > 1 switches onto the batched-update parallel trainer (episodes within
  // an update are collected concurrently on the shared pool).
  std::size_t rollouts_per_update = 1;
  bool calibrate = false;

  util::ArgParser parser("osap_train",
                         "Train a Pensieve actor-critic on a dataset's "
                         "training split and save the weights (OSAPNN01).");
  parser.AddPositional("dataset", "training dataset (see `osap_traces list`)",
                       &dataset);
  parser.AddPositional("out.bin", "weight file to write", &out_path);
  parser.AddOptionalPositional("episodes", "training episodes (default 2000)",
                               &episodes);
  parser.AddOptionalPositional("seed", "RNG seed (default 1)", &seed);
  parser.AddOptionalPositional(
      "rollouts_per_update",
      "episodes collected in parallel per update (default 1 = serial)",
      &rollouts_per_update);
  parser.AddFlag("--calibrate",
                 "after training, run the deploy pipeline's threshold "
                 "calibration for the dataset (Workbench bundle via the "
                 "shared ./osap_cache) and print alpha_pi / alpha_v",
                 &calibrate);
  if (!parser.Parse(argc, argv)) parser.ExitWithError();
  if (parser.HelpRequested()) parser.ExitWithHelp();

  const std::optional<traces::DatasetId> id = traces::DatasetFromName(dataset);
  if (!id) {
    std::fprintf(stderr, "unknown dataset '%s'\n", dataset.c_str());
    return 2;
  }
  const std::filesystem::path out = out_path;
  if (episodes == 0) episodes = 1;
  if (rollouts_per_update == 0) rollouts_per_update = 1;

  const traces::Dataset ds = traces::BuildDataset(*id);
  abr::AbrEnvironmentConfig env_cfg;
  abr::AbrEnvironment env(abr::MakeEnvivioLikeVideo(5), env_cfg);
  env.SetTracePool(ds.train, seed ^ 0x5EED);

  Rng init_rng(seed);
  auto net = std::make_shared<nn::ActorCriticNet>(
      policies::MakePensieveActorCritic(env_cfg.layout, {}, init_rng));

  std::printf("training on %s: %zu episodes, seed %llu\n",
              traces::DatasetLabel(*id).c_str(), episodes,
              static_cast<unsigned long long>(seed));
  // Train in 10 slices so we can narrate progress without a callback API.
  rl::A2cConfig cfg;
  cfg.seed = seed ^ 0xAC70;
  const std::size_t slices = 10;
  for (std::size_t s = 0; s < slices; ++s) {
    cfg.episodes = std::max<std::size_t>(1, episodes / slices);
    // Anneal entropy across the whole run, not per slice.
    const double t0 = static_cast<double>(s) / slices;
    const double t1 = static_cast<double>(s + 1) / slices;
    rl::A2cConfig slice = cfg;
    slice.entropy_coef_start = 1.0 + t0 * (0.01 - 1.0);
    slice.entropy_coef_end = 1.0 + t1 * (0.01 - 1.0);
    slice.seed = cfg.seed + s;
    rl::TrainingHistory h;
    if (rollouts_per_update > 1) {
      slice.rollouts_per_update = rollouts_per_update;
      // Each episode rolls out on its own environment copy advanced to its
      // global position in the trace-pool stream (the serial trainer
      // consumes the pool one Reset per episode).
      const std::size_t slice_base = s * slice.episodes;
      const rl::EpisodeEnvFactory env_for_episode =
          [&env, slice_base](std::size_t e) {
            auto copy = std::make_unique<abr::AbrEnvironment>(env);
            copy->SkipPoolEpisodes(slice_base + e);
            return std::unique_ptr<mdp::Environment>(std::move(copy));
          };
      const rl::ActorCriticCloneFactory clone_net = [&env_cfg]() {
        Rng scratch(0);
        return policies::MakePensieveActorCritic(env_cfg.layout, {}, scratch);
      };
      h = rl::TrainA2cParallel(*net, clone_net, env_for_episode, slice,
                               util::ThreadPool::Shared());
    } else {
      h = rl::TrainA2c(*net, env, slice);
    }
    std::printf("  %3zu%%  recent mean reward %8.2f\n", (s + 1) * 10,
                h.RecentMeanReward(20));
  }

  nn::SaveParamsToFile(out, net->AllParams());
  std::printf("saved weights to %s\n", out.c_str());

  // Quick in-distribution sanity check against BB on the test split.
  policies::PensievePolicy greedy(net, policies::ActionSelection::kGreedy,
                                  0);
  policies::BufferBasedPolicy bb(env.video(), env_cfg.layout);
  abr::AbrEnvironment eval_env(abr::MakeEnvivioLikeVideo(5), env_cfg);
  const double p = core::EvaluatePolicy(greedy, eval_env, ds.test).MeanQoe();
  const double b = core::EvaluatePolicy(bb, eval_env, ds.test).MeanQoe();
  std::printf("test-split QoE: pensieve %.1f vs buffer_based %.1f (%s)\n",
              p, b, p >= b ? "pensieve wins" : "BB wins");

  if (calibrate) {
    // The deploy pipeline's threshold step: train/load the Workbench
    // bundle for this dataset (ensemble + detectors + calibrated alphas)
    // in ./osap_cache, where osap_serve (which never trains) reads it.
    core::Workbench bench{core::WorkbenchConfig{}};
    const core::TrainedBundle& bundle = bench.BundleFor(*id);
    std::printf("calibrated thresholds for %s:\n",
                traces::DatasetLabel(*id).c_str());
    std::printf("  ND target QoE %.2f  alpha_pi %.6g  alpha_v %.6g\n",
                bundle.nd_in_dist_qoe, bundle.alpha_pi, bundle.alpha_v);
  }
  return 0;
}
