#include "core/workbench.h"

#include <algorithm>
#include <fstream>
#include <limits>

#include "core/normalization.h"
#include "core/replay_calibration.h"
#include "mdp/rollout.h"
#include "nn/serialize.h"
#include "policies/buffer_based.h"
#include "policies/pensieve_policy.h"
#include "policies/random_policy.h"
#include "rl/ensemble.h"
#include "util/check.h"
#include "util/logging.h"

namespace osap::core {

namespace {

std::uint64_t DatasetSeed(std::uint64_t base, traces::DatasetId id) {
  return base * 0x9E3779B97F4A7C15ULL + 0x243F6A8885A308D3ULL *
         (static_cast<std::uint64_t>(id) + 1);
}

}  // namespace

Workbench::Workbench(WorkbenchConfig config)
    : ArtifactCache(std::move(config)),
      train_video_(abr::MakeEnvivioLikeVideo(config_.train_video_repeats)) {
  OSAP_REQUIRE(config_.ensemble_size > config_.ensemble_discard,
               "Workbench: ensemble_discard must leave >= 1 member");
}

std::size_t Workbench::ResolvedThreads() const {
  return config_.threads == 0 ? util::ThreadPool::HardwareConcurrency()
                              : config_.threads;
}

util::ThreadPool& Workbench::Pool() const { return util::ThreadPool::Shared(); }

util::ParallelOptions Workbench::EvalOptions() const {
  // The calling thread participates in ParallelFor, so a budget of T
  // threads means at most T - 1 pool workers; T = 1 caps the pool out
  // entirely and ParallelFor degrades to the plain serial loop. Chunk 1
  // because every workbench item is coarse (a whole session or a whole
  // ensemble member).
  util::ParallelOptions options;
  options.max_workers = ResolvedThreads() - 1;
  options.chunk = 1;
  return options;
}

const traces::Dataset& Workbench::DatasetFor(traces::DatasetId id) {
  auto it = datasets_.find(id);
  if (it == datasets_.end()) {
    it = datasets_.emplace(id, traces::BuildDataset(id, config_.dataset))
             .first;
  }
  return it->second;
}

abr::AbrEnvironment Workbench::MakeTrainEnvironment(traces::DatasetId id) {
  abr::AbrEnvironmentConfig cfg;
  cfg.layout = layout_;
  abr::AbrEnvironment env(train_video_, cfg);
  env.SetTracePool(DatasetFor(id).train, DatasetSeed(config_.seed, id) ^ 1);
  return env;
}

void Workbench::TrainOrLoadAgents(TrainedBundle& bundle) {
  // A corrupt or stale cache falls back to retraining instead of failing.
  if (config_.use_cache && LoadAgents(bundle, config_.ensemble_size)) return;
  const rl::ActorCriticFactory factory = [this](Rng& rng) {
    return policies::MakePensieveActorCritic(layout_, config_.net, rng);
  };

  OSAP_LOG(kInfo) << "[" << traces::DatasetName(bundle.id) << "] training "
                  << config_.ensemble_size << " agents ("
                  << config_.a2c.episodes << " episodes each, "
                  << ResolvedThreads() << " threads)";
  abr::AbrEnvironment env = MakeTrainEnvironment(bundle.id);
  rl::A2cConfig a2c = config_.a2c;
  rl::AgentEnsembleResult ensemble;
  if (a2c.rollouts_per_update > 1) {
    // Batched-update schedule: episodes within an update are collected
    // concurrently. Every (member, episode) rolls out on its own copy of
    // the shared environment fast-forwarded to that episode's position in
    // the global stream, so the trace sequence is a function of the
    // indices alone and results are bit-identical at every thread count.
    const rl::MemberEpisodeEnvFactory env_for_episode =
        [&env, episodes = config_.a2c.episodes](std::size_t m,
                                                std::size_t e) {
          auto copy = std::make_unique<abr::AbrEnvironment>(env);
          copy->SkipPoolEpisodes(m * episodes + e);
          return std::unique_ptr<mdp::Environment>(std::move(copy));
        };
    ensemble = rl::TrainAgentEnsembleParallel(
        config_.ensemble_size, factory, env_for_episode, a2c,
        DatasetSeed(config_.seed, bundle.id), Pool(), EvalOptions());
  } else {
    // Member m trains on a copy of the shared environment fast-forwarded
    // past the first m members' episodes, reproducing the serial episode
    // stream bit-exactly (TrainA2c resets exactly `episodes` times).
    const rl::MemberEnvFactory env_for_member =
        [&env, episodes = config_.a2c.episodes](std::size_t m) {
          auto copy = std::make_unique<abr::AbrEnvironment>(env);
          copy->SkipPoolEpisodes(m * episodes);
          return std::unique_ptr<mdp::Environment>(std::move(copy));
        };
    ensemble = rl::TrainAgentEnsembleParallel(
        config_.ensemble_size, factory, env_for_member, a2c,
        DatasetSeed(config_.seed, bundle.id), Pool(), EvalOptions());
  }
  bundle.agents = std::move(ensemble.members);

  // Model selection: deploy the ensemble member with the best greedy
  // validation QoE (member 0 is "the" agent everywhere downstream - the
  // U_V ensemble trains on its experience, ND on its sessions, and every
  // scheme streams with it). The U_pi ensemble still uses all members.
  {
    const abr::AbrEnvironment eval_env = MakeEvalEnvironment();
    const auto& validation = DatasetFor(bundle.id).validation;
    std::vector<double> qoes(bundle.agents.size());
    Pool().ParallelFor(
        0, bundle.agents.size(),
        [&](std::size_t m) {
          policies::PensievePolicy policy(bundle.agents[m],
                                          policies::ActionSelection::kGreedy,
                                          /*seed=*/0);
          abr::AbrEnvironment member_env = eval_env;
          qoes[m] = EvaluatePolicy(policy, member_env, validation).MeanQoe();
        },
        EvalOptions());
    double best_qoe = -std::numeric_limits<double>::infinity();
    std::size_t best = 0;
    for (std::size_t m = 0; m < qoes.size(); ++m) {
      if (qoes[m] > best_qoe) {
        best_qoe = qoes[m];
        best = m;
      }
    }
    std::swap(bundle.agents[0], bundle.agents[best]);
    OSAP_LOG(kInfo) << "[" << traces::DatasetName(bundle.id)
                    << "] deployed member " << best << " (validation QoE "
                    << best_qoe << ")";
  }

  if (config_.use_cache) {
    const auto files = MemberFiles(bundle.id, "agent", bundle.agents.size());
    for (std::size_t m = 0; m < files.size(); ++m) {
      nn::SaveParamsToFile(files[m], bundle.agents[m]->AllParams());
    }
  }
}

void Workbench::TrainOrLoadValueNets(TrainedBundle& bundle) {
  if (config_.use_cache && LoadValueNets(bundle)) return;
  const rl::ValueNetFactory factory = [this](Rng& rng) {
    return policies::BuildPensieveNet(layout_, 1, config_.net, rng);
  };

  OSAP_LOG(kInfo) << "[" << traces::DatasetName(bundle.id) << "] training "
                  << config_.ensemble_size << " value functions";
  abr::AbrEnvironment env = MakeTrainEnvironment(bundle.id);
  // Experience comes from the deployed agent exploring (sampled actions),
  // i.e. "the agent-environment interaction while training" (Section 2.4).
  const std::uint64_t driver_seed = DatasetSeed(config_.seed, bundle.id) ^ 2;
  if (config_.value_train.parallel_collection) {
    // Parallel collection: each episode rolls out on its own copy of the
    // training environment advanced to the episode's pool position, driven
    // by a fresh sampling policy seeded from the episode index.
    const rl::RolloutEnvFactory env_for_episode = [&env](std::size_t e) {
      auto copy = std::make_unique<abr::AbrEnvironment>(env);
      copy->SkipPoolEpisodes(e);
      return std::unique_ptr<mdp::Environment>(std::move(copy));
    };
    const rl::RolloutPolicyFactory policy_for_episode =
        [&bundle, driver_seed](std::size_t e) {
          const std::uint64_t seed =
              driver_seed * 0x9E3779B97F4A7C15ULL +
              0xD1B54A32D192ED03ULL * (e + 1);
          return std::unique_ptr<mdp::Policy>(
              std::make_unique<policies::PensievePolicy>(
                  bundle.agents.front(),
                  policies::ActionSelection::kSample, seed));
        };
    bundle.value_nets = rl::TrainValueEnsembleParallel(
        config_.ensemble_size, factory, env_for_episode, policy_for_episode,
        config_.value_train, DatasetSeed(config_.seed, bundle.id) ^ 3, Pool(),
        EvalOptions());
  } else {
    policies::PensievePolicy driver(bundle.agents.front(),
                                    policies::ActionSelection::kSample,
                                    driver_seed);
    bundle.value_nets = rl::TrainValueEnsembleParallel(
        config_.ensemble_size, factory, env, driver, config_.value_train,
        DatasetSeed(config_.seed, bundle.id) ^ 3, Pool(), EvalOptions());
  }
  if (config_.use_cache) {
    const auto files =
        MemberFiles(bundle.id, "value", bundle.value_nets.size());
    for (std::size_t m = 0; m < files.size(); ++m) {
      nn::SaveParamsToFile(files[m], bundle.value_nets[m]->Params());
    }
  }
}

void Workbench::FitOrLoadNoveltyDetector(TrainedBundle& bundle) {
  if (config_.use_cache && LoadNoveltyDetector(bundle)) return;
  bundle.novelty =
      std::make_shared<NoveltyDetector>(NdConfigFor(bundle.id), layout_);

  // Collect per-session chunk-throughput sequences by streaming the
  // training traces with the deployed agent.
  OSAP_LOG(kInfo) << "[" << traces::DatasetName(bundle.id)
                  << "] fitting OC-SVM novelty detector";
  const abr::AbrEnvironment env = MakeTrainEnvironment(bundle.id);
  const auto& train_traces = DatasetFor(bundle.id).train;
  const NoveltyDetectorConfig nd_cfg = NdConfigFor(bundle.id);
  // Per-trace sessions are independent (fixed-trace resets consume no pool
  // randomness and the greedy driver is deterministic), so they run on the
  // pool; per-trace feature lists are flattened in trace order afterwards
  // to match the serial collection exactly.
  std::vector<std::vector<std::vector<double>>> per_trace(
      train_traces.size());
  Pool().ParallelFor(
      0, train_traces.size(),
      [&](std::size_t i) {
        abr::AbrEnvironment local_env = env;
        policies::PensievePolicy driver(bundle.agents.front(),
                                        policies::ActionSelection::kGreedy,
                                        /*seed=*/0);
        local_env.SetFixedTrace(train_traces[i]);
        driver.Reset();
        std::vector<double> throughputs;
        mdp::State state = local_env.Reset();
        bool done = false;
        while (!done) {
          mdp::StepResult step = local_env.Step(driver.SelectAction(state));
          throughputs.push_back(local_env.LastDownload().throughput_mbps);
          state = std::move(step.next_state);
          done = step.done;
        }
        per_trace[i] = NoveltyDetector::ExtractFeatures(throughputs, nd_cfg);
      },
      EvalOptions());
  std::vector<std::vector<double>> features;
  for (auto& session : per_trace) {
    for (auto& f : session) features.push_back(std::move(f));
  }
  bundle.novelty->Fit(features);
  if (config_.use_cache) {
    bundle.novelty->Save(BundleDir(bundle.id) / "ocsvm.bin");
  }
}

std::shared_ptr<mdp::Policy> Workbench::MakeGreedyPensieve(
    const TrainedBundle& bundle) const {
  return std::make_shared<policies::PensievePolicy>(
      bundle.agents.front(), policies::ActionSelection::kGreedy, /*seed=*/0);
}

std::shared_ptr<mdp::Policy> Workbench::MakeBufferBased() const {
  return std::make_shared<policies::BufferBasedPolicy>(eval_video_, layout_);
}

void Workbench::CalibrateOrLoadThresholds(TrainedBundle& bundle) {
  if (config_.use_cache && LoadThresholds(bundle)) return;
  OSAP_LOG(kInfo) << "[" << traces::DatasetName(bundle.id)
                  << "] calibrating thresholds";

  abr::AbrEnvironment env = MakeEvalEnvironment();
  const auto& validation = DatasetFor(bundle.id).validation;
  OSAP_CHECK_MSG(!validation.empty(), "calibration needs validation traces");

  // Record each validation trace's no-default rollout ONCE (the greedy
  // trajectory is estimator-independent), score it per estimator, and
  // replay triggers against the recorded series (replay_calibration.h).
  // The ND target and every bisection probe come from that single
  // recording; tests pin both bit-identical to full SafeAgent
  // re-evaluation.
  CalibrationReplay<abr::AbrEnvironment> replay(
      [&] { return MakeGreedyPensieve(bundle); },
      [&] { return MakeBufferBased(); }, env, validation, config_.trigger_k,
      config_.trigger_l, Pool(), EvalOptions());

  // Target: the ND scheme's in-distribution QoE with the paper's fixed
  // thresholding (binary OOD flag, l consecutive).
  replay.ScoreWith([&]() -> std::shared_ptr<UncertaintyEstimator> {
    return std::make_shared<NoveltyDetector>(*bundle.novelty);
  });
  bundle.nd_in_dist_qoe = replay.MeanQoeAtBinaryTrigger();

  // Calibrate each continuous scheme's alpha to the ND target.
  const auto calibrate =
      [&](const CalibrationReplay<abr::AbrEnvironment>::EstimatorFactory&
              make_estimator) -> double {
    replay.ScoreWith(make_estimator);
    const double hi = replay.MaxFullWindowVariance();
    if (hi <= 0.0) return 0.0;  // signal never varies: any alpha works
    return CalibrateAlpha(
               [&](double alpha) { return replay.MeanQoeAt(alpha); },
               bundle.nd_in_dist_qoe, 0.0, hi * 1.25, config_.calibration)
        .alpha;
  };

  bundle.alpha_pi = calibrate([&]() -> std::shared_ptr<UncertaintyEstimator> {
    return std::make_shared<AgentEnsembleEstimator>(bundle.agents,
                                                    config_.ensemble_discard);
  });
  bundle.alpha_v = calibrate([&]() -> std::shared_ptr<UncertaintyEstimator> {
    return std::make_shared<ValueEnsembleEstimator>(bundle.value_nets,
                                                    config_.ensemble_discard);
  });

  if (config_.use_cache) {
    const auto dir = BundleDir(bundle.id);
    std::filesystem::create_directories(dir);
    std::ofstream out(dir / "calibration.txt", std::ios::trunc);
    out.precision(17);
    out << bundle.nd_in_dist_qoe << ' ' << bundle.alpha_pi << ' '
        << bundle.alpha_v << '\n';
  }
}

const TrainedBundle& Workbench::BundleFor(traces::DatasetId id) {
  auto it = bundles_.find(id);
  if (it != bundles_.end()) return it->second;
  TrainedBundle bundle;
  bundle.id = id;
  TrainOrLoadAgents(bundle);
  TrainOrLoadValueNets(bundle);
  FitOrLoadNoveltyDetector(bundle);
  CalibrateOrLoadThresholds(bundle);
  return bundles_.emplace(id, std::move(bundle)).first->second;
}

std::shared_ptr<mdp::Policy> Workbench::MakePolicyFromBundle(
    Scheme scheme, const TrainedBundle* bundle) const {
  if (scheme != Scheme::kBufferBased && scheme != Scheme::kRandom) {
    OSAP_CHECK_MSG(bundle != nullptr,
                   "MakePolicyFromBundle: scheme needs a trained bundle");
  }
  std::shared_ptr<UncertaintyEstimator> estimator;
  switch (scheme) {
    case Scheme::kBufferBased:
      return MakeBufferBased();
    case Scheme::kRandom:
      return std::make_shared<policies::RandomPolicy>(
          eval_video_.LevelCount(), config_.seed ^ 0xABCDEF);
    case Scheme::kPensieve:
      return MakeGreedyPensieve(*bundle);
    case Scheme::kNoveltyDetection: {
      // Fresh detector per policy (shares the fitted model, owns its own
      // observation window).
      auto detector = std::make_shared<NoveltyDetector>(*bundle->novelty);
      detector->Reset();
      estimator = std::move(detector);
      break;
    }
    case Scheme::kAgentEnsemble:
      estimator = std::make_shared<AgentEnsembleEstimator>(
          bundle->agents, config_.ensemble_discard);
      break;
    case Scheme::kValueEnsemble:
      estimator = std::make_shared<ValueEnsembleEstimator>(
          bundle->value_nets, config_.ensemble_discard);
      break;
  }
  OSAP_CHECK_MSG(estimator != nullptr, "MakePolicy: unknown scheme");
  return std::make_shared<SafeAgent>(MakeGreedyPensieve(*bundle),
                                     MakeBufferBased(), std::move(estimator),
                                     TriggerFor(scheme, *bundle));
}

std::shared_ptr<mdp::Policy> Workbench::MakePolicy(Scheme scheme,
                                                   traces::DatasetId train) {
  const TrainedBundle* bundle = nullptr;
  if (scheme != Scheme::kBufferBased && scheme != Scheme::kRandom) {
    bundle = &BundleFor(train);
  }
  return MakePolicyFromBundle(scheme, bundle);
}

const EvalResult& Workbench::Evaluate(Scheme scheme, traces::DatasetId train,
                                      traces::DatasetId test) {
  // Baselines do not depend on the training distribution; collapse the key
  // so they are evaluated once per test set.
  if (scheme == Scheme::kBufferBased || scheme == Scheme::kRandom) {
    train = test;
  }
  const auto key = std::make_tuple(static_cast<int>(scheme),
                                   static_cast<int>(train),
                                   static_cast<int>(test));
  auto it = eval_cache_.find(key);
  if (it != eval_cache_.end()) return it->second;

  // Materialize the bundle and datasets on this thread before fanning out.
  const TrainedBundle* bundle = nullptr;
  if (scheme != Scheme::kBufferBased && scheme != Scheme::kRandom) {
    bundle = &BundleFor(train);
  }
  const auto& test_traces = DatasetFor(test).test;
  EvalResult result;
  if (scheme == Scheme::kRandom || ResolvedThreads() <= 1 ||
      test_traces.size() <= 1) {
    // Random stays serial on purpose: its action RNG carries across
    // sessions, so per-trace results depend on evaluation order.
    std::shared_ptr<mdp::Policy> policy = MakePolicyFromBundle(scheme, bundle);
    abr::AbrEnvironment env = MakeEvalEnvironment();
    result = EvaluatePolicy(*policy, env, test_traces);
  } else {
    const abr::AbrEnvironment env = MakeEvalEnvironment();
    result = EvaluatePolicyParallel(
        [this, scheme, bundle] { return MakePolicyFromBundle(scheme, bundle); },
        env, test_traces, Pool(), EvalOptions());
  }
  return eval_cache_.emplace(key, std::move(result)).first->second;
}

double Workbench::NormalizedMean(Scheme scheme, traces::DatasetId train,
                                 traces::DatasetId test) {
  const double qoe = Evaluate(scheme, train, test).MeanQoe();
  const double random_qoe = Evaluate(Scheme::kRandom, test, test).MeanQoe();
  const double bb_qoe = Evaluate(Scheme::kBufferBased, test, test).MeanQoe();
  return NormalizedScore(qoe, random_qoe, bb_qoe);
}

}  // namespace osap::core
