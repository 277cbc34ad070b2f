// Example: train a Pensieve agent from scratch on one distribution and
// watch the learning curve, then compare the trained agent against the
// Buffer-Based and Random baselines in-distribution and out-of-distribution.
//
// Usage: train_pensieve [episodes] [train_dataset]
//   train_dataset: norway | belgium | gamma_1_2 | gamma_2_2 | logistic |
//                  exponential (default gamma_2_2)
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "core/evaluation.h"
#include "policies/buffer_based.h"
#include "policies/pensieve_net.h"
#include "policies/pensieve_policy.h"
#include "policies/random_policy.h"
#include "rl/a2c.h"
#include "traces/dataset.h"
#include "util/table.h"

using namespace osap;

int main(int argc, char** argv) {
  const std::size_t episodes =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 300;
  const std::optional<traces::DatasetId> found =
      argc > 2 ? traces::DatasetFromName(argv[2]) : traces::DatasetId::kGamma22;
  if (!found) {
    std::fprintf(stderr, "unknown dataset '%s'\n", argv[2]);
    return 1;
  }
  const traces::DatasetId train_id = *found;

  std::printf("== building datasets ==\n");
  const traces::Dataset train_ds = traces::BuildDataset(train_id);

  // Training environment: full-length video over the training traces.
  abr::AbrEnvironmentConfig env_cfg;
  abr::AbrEnvironment train_env(abr::MakeEnvivioLikeVideo(5), env_cfg);
  train_env.SetTracePool(train_ds.train, /*seed=*/11);

  std::printf("== training A2C agent on %s (%zu episodes) ==\n",
              traces::DatasetLabel(train_id).c_str(), episodes);
  Rng init_rng(1);
  auto net = std::make_shared<nn::ActorCriticNet>(
      policies::MakePensieveActorCritic(env_cfg.layout, {}, init_rng));
  rl::A2cConfig a2c;
  a2c.episodes = episodes;
  const rl::TrainingHistory history = rl::TrainA2c(*net, train_env, a2c);
  for (std::size_t e = 0; e < history.episode_rewards.size();
       e += std::max<std::size_t>(1, episodes / 15)) {
    std::printf("  episode %4zu  reward %8.2f\n", e,
                history.episode_rewards[e]);
  }
  std::printf("  final (mean of last 20): %.2f\n",
              history.RecentMeanReward(20));

  // Evaluate against baselines on every dataset's held-out test traces,
  // streaming the full 240-chunk video.
  std::printf("\n== evaluation (240-chunk video, test traces) ==\n");
  TablePrinter table(
      {"test dataset", "pensieve", "buffer_based", "random", "verdict"});
  for (traces::DatasetId test_id : traces::AllDatasetIds()) {
    const traces::Dataset test_ds =
        test_id == train_id ? train_ds : traces::BuildDataset(test_id);
    abr::AbrEnvironment eval_env(abr::MakeEnvivioLikeVideo(5), env_cfg);

    policies::PensievePolicy pensieve(net,
                                      policies::ActionSelection::kGreedy, 0);
    policies::BufferBasedPolicy bb(eval_env.video(), env_cfg.layout);
    policies::RandomPolicy random(eval_env.video().LevelCount(), 99);

    const double p =
        core::EvaluatePolicy(pensieve, eval_env, test_ds.test).MeanQoe();
    const double b =
        core::EvaluatePolicy(bb, eval_env, test_ds.test).MeanQoe();
    const double r =
        core::EvaluatePolicy(random, eval_env, test_ds.test).MeanQoe();
    const char* verdict = p >= b ? "pensieve wins" : "BB wins";
    table.AddRow({traces::DatasetLabel(test_id) +
                      (test_id == train_id ? " (in-dist)" : ""),
                  TablePrinter::Num(p), TablePrinter::Num(b),
                  TablePrinter::Num(r), verdict});
  }
  table.Print();
  return 0;
}
