// ServingModel: the shared immutable half of a deployed OSAP scheme.
//
// A production deployment (ROADMAP north star: one Pensieve+safety-net
// instance per concurrent viewer) runs thousands of sessions against ONE
// set of trained artifacts. The sequential stack instantiates those
// artifacts per session - every SafeAgent gets its own estimator with its
// own ~100 KB packed weight copy - so N concurrent sessions stream N
// copies of identical weights from DRAM every decision round. ServingModel
// is the deduplicated alternative: one object per process holding
//   - the scheme's uncertainty model (EnsembleModel for U_pi / U_V, the
//     fitted OC-SVM + feature config + observation probe for U_S),
//   - the deployed Pensieve actor packed for batched greedy action
//     selection (a 1-member BatchedEnsemble),
//   - the Buffer-Based fallback mapping, and
//   - the SafeAgentConfig (trigger + defaulting mode) sessions start from.
// Everything here is const after construction and thread-safe; all
// per-session mutable state (trigger windows, novelty feature extractor,
// defaulted flag) lives in the DecisionService's session contexts.
//
// Every batched entry point is bit-identical to its sequential
// counterpart: UncertaintyScores to UncertaintyEstimator::Score,
// NoveltyDecisionValues to OneClassSvm::DecisionValue, GreedyActions to
// PensievePolicy (kGreedy) SelectAction, FallbackAction to
// BufferBasedPolicy::SelectAction. The service's equivalence tests pin
// this end to end against the sequential SafeAgent loop.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "abr/state.h"
#include "abr/video.h"
#include "core/ensemble_model.h"
#include "core/novelty_detector.h"
#include "core/safety_core.h"
#include "mdp/types.h"
#include "nn/actor_critic_net.h"
#include "nn/ensemble_forward.h"
#include "policies/buffer_based.h"

namespace osap::core {
class ArtifactCache;
struct TrainedBundle;
enum class Scheme;
}  // namespace osap::core

namespace osap::serve {

/// Which uncertainty signal the deployment monitors (paper Section 2.4).
enum class Signal {
  kNovelty,        // U_S: OC-SVM over throughput-window features
  kAgentEnsemble,  // U_pi: trimmed KL disagreement
  kValueEnsemble,  // U_V: trimmed value deviation
};

class ServingModel {
 public:
  /// U_pi deployment: `agents` are the trained ensemble (member 0 is the
  /// deployed actor), scored with `discard` members trimmed.
  static std::shared_ptr<const ServingModel> AgentEnsemble(
      std::vector<std::shared_ptr<nn::ActorCriticNet>> agents,
      std::size_t discard, const abr::VideoSpec& video,
      const abr::AbrStateLayout& layout, core::SafeAgentConfig safety);

  /// U_V deployment: the deployed actor comes from `agents.front()`, the
  /// uncertainty signal from the external `value_nets` ensemble.
  static std::shared_ptr<const ServingModel> ValueEnsemble(
      std::vector<std::shared_ptr<nn::ActorCriticNet>> agents,
      std::vector<std::shared_ptr<nn::CompositeNet>> value_nets,
      std::size_t discard, const abr::VideoSpec& video,
      const abr::AbrStateLayout& layout, core::SafeAgentConfig safety);

  /// U_S deployment: `novelty` must be fitted; its OC-SVM, feature config
  /// and observation probe are shared (const) across all sessions.
  static std::shared_ptr<const ServingModel> Novelty(
      std::vector<std::shared_ptr<nn::ActorCriticNet>> agents,
      std::shared_ptr<const core::NoveltyDetector> novelty,
      const abr::VideoSpec& video, const abr::AbrStateLayout& layout,
      core::SafeAgentConfig safety);

  /// The deployment of a workbench safety scheme (ND -> Novelty,
  /// A-ensemble -> AgentEnsemble, V-ensemble -> ValueEnsemble) over
  /// `bundle`, with `cache`'s eval video, layout and ensemble discard.
  /// The bundle needs only what the scheme serves, e.g. the one from
  /// ArtifactCache::LoadServedArtifacts.
  static std::shared_ptr<const ServingModel> ForScheme(
      const core::ArtifactCache& cache, core::Scheme scheme,
      const core::TrainedBundle& bundle, core::SafeAgentConfig safety);

  /// The buffers UncertaintyScores and GreedyActions write. The actor
  /// pass has its own activations, so alternating passes regrow nothing.
  struct Scratch : core::EnsembleModel::Scratch {
    nn::InferScratch actor;
    std::size_t Bytes() const {
      return core::EnsembleModel::Scratch::Bytes() + actor.Bytes();
    }
  };

  Signal signal() const { return signal_; }
  const core::SafeAgentConfig& safety() const { return safety_; }
  const abr::AbrStateLayout& layout() const { return layout_; }
  /// State width every request must present (the nets' input size).
  std::size_t InputSize() const { return actor_.InputSize(); }
  std::size_t ActionCount() const { return actor_.OutputSize(); }

  /// U_pi / U_V only: scores B pre-packed state rows with one fused pass
  /// over the ensemble weights. out[b] bit-identical to the sequential
  /// estimator's Score on row b.
  ///
  /// For U_pi deployments a non-empty `greedy_actions` (>= B) also
  /// receives the deployed actor's greedy action per row at no extra
  /// inference cost: the deployed actor IS ensemble member 0, so its
  /// softmaxed distribution is already in hand from the KL score, and the
  /// selection replicates GreedyActions bit for bit (same logit bits from
  /// the packed weights, same softmax-then-first-max). U_V deployments
  /// must pass an empty span (their value members are not the actor).
  void UncertaintyScores(const nn::Matrix& states, std::span<double> out,
                         std::span<mdp::Action> greedy_actions,
                         Scratch& scratch) const;
  /// One-off form for tests and tools: allocates its own scratch.
  void UncertaintyScores(const nn::Matrix& states, std::span<double> out,
                         std::span<mdp::Action> greedy_actions = {}) const {
    Scratch scratch;
    UncertaintyScores(states, out, greedy_actions, scratch);
  }

  /// True when UncertaintyScores can emit deployed-actor actions as a
  /// by-product (U_pi: the deployed actor is ensemble member 0).
  bool ScoresYieldActions() const {
    return signal_ == Signal::kAgentEnsemble;
  }

  /// U_S only: batched OC-SVM decision values over `count` contiguous
  /// feature rows (count x FeatureSize()). out[i] >= 0 means
  /// in-distribution; bit-identical to DecisionValue per row.
  void NoveltyDecisionValues(const double* rows, std::size_t count,
                             std::span<double> out) const;

  /// U_S only: feature dimensionality / extractor config / state probe
  /// for the per-session extractors the service owns.
  const core::NoveltyDetectorConfig& NoveltyConfig() const;
  const core::NoveltyDetector::Probe& NoveltyProbe() const;

  /// Deployed-policy actions for B pre-packed state rows via one batched
  /// actor pass. out[b] replicates PensievePolicy's greedy selection
  /// (softmax then first-argmax) bit for bit.
  void GreedyActions(const nn::Matrix& states, std::span<mdp::Action> out,
                     Scratch& scratch) const;
  /// One-off form for tests and tools: allocates its own scratch.
  void GreedyActions(const nn::Matrix& states,
                     std::span<mdp::Action> out) const {
    Scratch scratch;
    GreedyActions(states, out, scratch);
  }

  /// The Buffer-Based default action for one state (pure buffer->level
  /// mapping; no batching needed - it is a few compares).
  mdp::Action FallbackAction(const mdp::State& state) const;

 private:
  ServingModel(Signal signal,
               const std::vector<std::shared_ptr<nn::ActorCriticNet>>& agents,
               std::shared_ptr<const core::EnsembleModel> uncertainty,
               std::shared_ptr<const core::NoveltyDetector> novelty,
               const abr::VideoSpec& video, const abr::AbrStateLayout& layout,
               core::SafeAgentConfig safety);

  Signal signal_;
  std::shared_ptr<const core::EnsembleModel> uncertainty_;  // U_pi / U_V
  std::shared_ptr<const core::NoveltyDetector> novelty_;    // U_S
  nn::BatchedEnsemble actor_;  // deployed actor packed alone (1 member)
  policies::BufferBasedPolicy fallback_;
  abr::AbrStateLayout layout_;
  core::SafeAgentConfig safety_;
};

}  // namespace osap::serve
