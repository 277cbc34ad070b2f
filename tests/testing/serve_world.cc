#include "testing/serve_world.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "abr/abr_environment.h"
#include "core/ensemble_estimators.h"
#include "policies/pensieve_net.h"
#include "policies/pensieve_policy.h"
#include "traces/generators.h"
#include "util/rng.h"
#include "util/stats.h"

namespace osap::testing {
namespace {

constexpr std::size_t kEnsemble = 4;
constexpr std::size_t kTraces = 8;

/// The 90th percentile of the k-window variances of `signal`'s scores
/// when the deployed greedy actor drives every trace: the variance
/// trigger fires on some sessions, several of them mid-session, and stays
/// quiet on others (the oracle asserts this coverage per seed).
double CalibratedAlpha(const ServeWorld& w, serve::Signal signal) {
  auto estimator = MakeEstimator(w, signal);
  policies::PensievePolicy deployed(w.agents.front(),
                                    policies::ActionSelection::kGreedy, 0);
  std::vector<double> variances;
  for (const traces::Trace& trace : w.traces) {
    abr::AbrEnvironment env(w.video, {});
    env.SetFixedTrace(trace);
    SlidingWindowStats window(kWorldTriggerK);
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

}  // namespace

const ServeWorld& SharedServeWorld() {
  static const ServeWorld* world = [] {
    auto* w = new ServeWorld();
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
    const auto id_gen = traces::MakeNorway3gGenerator();
    const auto ood_gen = traces::MakeBelgium4gGenerator();
    Rng trace_rng(29);
    for (std::size_t i = 0; i < kTraces; ++i) {
      const auto& gen = i % 2 == 0 ? id_gen : ood_gen;
      w->traces.push_back(gen->Generate(trace_rng, 200.0, i));
    }

    core::NoveltyDetectorConfig nd;
    nd.throughput_window = 3;
    nd.k = 2;
    std::vector<std::vector<double>> features;
    for (std::size_t i = 0; i < 4; ++i) {
      const traces::Trace t = id_gen->Generate(trace_rng, 400.0, 100 + i);
      const auto f = core::NoveltyDetector::ExtractFeatures(t.samples(), nd);
      features.insert(features.end(), f.begin(), f.end());
    }
    w->novelty = std::make_shared<core::NoveltyDetector>(nd, w->layout);
    w->novelty->Fit(features);

    w->alpha_pi = CalibratedAlpha(*w, serve::Signal::kAgentEnsemble);
    w->alpha_v = CalibratedAlpha(*w, serve::Signal::kValueEnsemble);
    return w;
  }();
  return *world;
}

core::SafeAgentConfig ConfigFor(const ServeWorld& w, serve::Signal signal,
                                core::DefaultingMode mode) {
  core::SafeAgentConfig config;
  config.trigger.l = kWorldTriggerL;
  config.trigger.k = kWorldTriggerK;
  config.mode = mode;
  config.revoke_after = kWorldRevokeAfter;
  config.trigger.mode = signal == serve::Signal::kNovelty
                            ? core::TriggerMode::kBinary
                            : core::TriggerMode::kWindowVariance;
  if (signal == serve::Signal::kAgentEnsemble) config.trigger.alpha = w.alpha_pi;
  if (signal == serve::Signal::kValueEnsemble) config.trigger.alpha = w.alpha_v;
  return config;
}

std::shared_ptr<const serve::ServingModel> ModelFor(
    const ServeWorld& w, serve::Signal signal, core::DefaultingMode mode) {
  const core::SafeAgentConfig config = ConfigFor(w, signal, mode);
  switch (signal) {
    case serve::Signal::kNovelty:
      return serve::ServingModel::Novelty(w.agents, w.novelty, w.video,
                                          w.layout, config);
    case serve::Signal::kAgentEnsemble:
      return serve::ServingModel::AgentEnsemble(w.agents, kWorldDiscard,
                                                w.video, w.layout, config);
    case serve::Signal::kValueEnsemble:
      return serve::ServingModel::ValueEnsemble(
          w.agents, w.value_nets, kWorldDiscard, w.video, w.layout, config);
  }
  throw std::logic_error("unreachable");
}

std::shared_ptr<core::UncertaintyEstimator> MakeEstimator(
    const ServeWorld& w, serve::Signal signal) {
  switch (signal) {
    case serve::Signal::kNovelty: {
      auto detector = std::make_shared<core::NoveltyDetector>(*w.novelty);
      detector->Reset();
      return detector;
    }
    case serve::Signal::kAgentEnsemble:
      return std::make_shared<core::AgentEnsembleEstimator>(w.agents,
                                                            kWorldDiscard);
    case serve::Signal::kValueEnsemble:
      return std::make_shared<core::ValueEnsembleEstimator>(w.value_nets,
                                                            kWorldDiscard);
  }
  throw std::logic_error("unreachable");
}

std::string SignalModeName(serve::Signal signal, core::DefaultingMode mode) {
  static const char* const kSignals[] = {"Novelty", "AgentEnsemble",
                                         "ValueEnsemble"};
  return std::string(kSignals[static_cast<int>(signal)]) +
         (mode == core::DefaultingMode::kPermanent ? "Permanent"
                                                   : "Revocable");
}

}  // namespace osap::testing
