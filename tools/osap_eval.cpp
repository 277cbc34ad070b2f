// osap_eval: evaluate a saved Pensieve agent (osap_train output) on any
// dataset, with or without a safety net.
//
// Usage:
//   osap_eval <weights.bin> <train_dataset> <test_dataset> [--safe]
//
// `train_dataset` identifies the distribution the agent was trained on
// (needed to fit the U_S novelty detector when --safe is given);
// `test_dataset`'s held-out test split is streamed. With --safe the agent
// is wrapped in SafeAgent(Pensieve -> BufferBased, NoveltyDetector).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/evaluation.h"
#include "core/novelty_detector.h"
#include "core/safe_agent.h"
#include "nn/serialize.h"
#include "policies/buffer_based.h"
#include "policies/pensieve_net.h"
#include "policies/pensieve_policy.h"
#include "policies/random_policy.h"
#include "traces/dataset.h"
#include "util/arg_parser.h"

using namespace osap;

int main(int argc, char** argv) {
  std::string weights_path;
  std::string train_dataset;
  std::string test_dataset;
  bool safe = false;

  util::ArgParser parser("osap_eval",
                         "Evaluate a saved Pensieve agent (osap_train "
                         "output) on a dataset's held-out test split.");
  parser.AddPositional("weights.bin", "weight file from osap_train",
                       &weights_path);
  parser.AddPositional("train_dataset",
                       "distribution the agent was trained on (fits the "
                       "U_S detector under --safe)",
                       &train_dataset);
  parser.AddPositional("test_dataset", "dataset whose test split to stream",
                       &test_dataset);
  parser.AddFlag("--safe",
                 "wrap the agent in SafeAgent(Pensieve -> BufferBased, "
                 "NoveltyDetector)",
                 &safe);
  if (!parser.Parse(argc, argv)) parser.ExitWithError();
  if (parser.HelpRequested()) parser.ExitWithHelp();

  const std::filesystem::path weights = weights_path;
  const auto train_id = traces::DatasetFromName(train_dataset);
  const auto test_id = traces::DatasetFromName(test_dataset);
  if (!train_id || !test_id) {
    std::fprintf(stderr, "unknown dataset '%s'\n",
                 (train_id ? test_dataset : train_dataset).c_str());
    return 2;
  }

  abr::AbrEnvironmentConfig env_cfg;
  Rng init_rng(1);
  auto net = std::make_shared<nn::ActorCriticNet>(
      policies::MakePensieveActorCritic(env_cfg.layout, {}, init_rng));
  nn::LoadParamsFromFile(weights, net->AllParams());
  auto pensieve = std::make_shared<policies::PensievePolicy>(
      net, policies::ActionSelection::kGreedy, 0);

  const traces::Dataset test_ds = traces::BuildDataset(*test_id);
  abr::AbrEnvironment env(abr::MakeEnvivioLikeVideo(5), env_cfg);

  std::shared_ptr<mdp::Policy> policy = pensieve;
  if (safe) {
    // Fit U_S on the agent's own training-distribution sessions.
    const traces::Dataset train_ds = traces::BuildDataset(*train_id);
    core::NoveltyDetectorConfig nd_cfg;
    nd_cfg.k = traces::IsSyntheticIid(*train_id) ? 30 : 5;
    auto detector =
        std::make_shared<core::NoveltyDetector>(nd_cfg, env_cfg.layout);
    std::vector<std::vector<double>> features;
    abr::AbrEnvironment fit_env(abr::MakeEnvivioLikeVideo(5), env_cfg);
    for (const traces::Trace& trace : train_ds.train) {
      fit_env.SetFixedTrace(trace);
      pensieve->Reset();
      std::vector<double> throughputs;
      mdp::State s = fit_env.Reset();
      bool done = false;
      while (!done) {
        mdp::StepResult r = fit_env.Step(pensieve->SelectAction(s));
        throughputs.push_back(fit_env.LastDownload().throughput_mbps);
        s = std::move(r.next_state);
        done = r.done;
      }
      for (auto& f :
           core::NoveltyDetector::ExtractFeatures(throughputs, nd_cfg)) {
        features.push_back(std::move(f));
      }
    }
    detector->Fit(features);
    std::printf("fitted OC-SVM on %zu features (%zu support vectors)\n",
                features.size(), detector->model().SupportVectorCount());

    core::SafeAgentConfig safe_cfg;
    safe_cfg.trigger.mode = core::TriggerMode::kBinary;
    safe_cfg.trigger.l = 3;
    policy = std::make_shared<core::SafeAgent>(
        pensieve,
        std::make_shared<policies::BufferBasedPolicy>(env.video(),
                                                      env_cfg.layout),
        detector, safe_cfg);
  }

  const core::EvalResult result =
      core::EvaluatePolicy(*policy, env, test_ds.test);
  const Summary s = result.Summarize();
  std::printf("%s on %s test split (%zu sessions):\n",
              safe ? "pensieve+ND" : "pensieve",
              traces::DatasetLabel(*test_id).c_str(), s.count);
  std::printf("  QoE mean %.1f  median %.1f  min %.1f  max %.1f\n", s.mean,
              s.median, s.min, s.max);

  // Baseline anchors for context.
  policies::BufferBasedPolicy bb(env.video(), env_cfg.layout);
  policies::RandomPolicy random(env.ActionCount(), 99);
  std::printf("  buffer_based mean %.1f / random mean %.1f\n",
              core::EvaluatePolicy(bb, env, test_ds.test).MeanQoe(),
              core::EvaluatePolicy(random, env, test_ds.test).MeanQoe());
  return 0;
}
