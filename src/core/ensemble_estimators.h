// U_pi and U_V: output-side uncertainty via ensemble disagreement (paper
// Sections 2.4 and 3.1).
//
// Both estimators hold an ensemble of i = 5 networks trained identically
// except for weight initialization. Per decision:
//   1. every member produces its output for the current state (an action
//      distribution for U_pi, a scalar value for U_V);
//   2. the `discard` = 2 outputs farthest from the ensemble average are
//      dropped (the paper's robustification);
//   3. the uncertainty is the sum of distances of the surviving outputs
//      from the survivors' average - KL divergence for distributions,
//      absolute deviation for values.
//
// The scoring math and packed member weights live in the shared, immutable
// core::EnsembleModel (one per ensemble per process); these classes are
// thin adapters onto the UncertaintyEstimator interface (their only state
// is scoring scratch). The
// serving path skips the adapter and batches states from many sessions
// straight through the model (see src/serve/).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/ensemble_model.h"
#include "core/uncertainty.h"
#include "nn/actor_critic_net.h"
#include "nn/sequential.h"

namespace osap::core {

/// Shared trimming logic: given per-member distances from the full-ensemble
/// mean, returns the indices of the `keep` members with smallest distance
/// (stable order). Exposed for tests.
std::vector<std::size_t> SurvivingMembers(
    const std::vector<double>& distances_from_mean, std::size_t keep);

/// U_pi: sum of KL divergences of surviving members' action distributions
/// from the survivors' mean distribution.
class AgentEnsembleEstimator final : public UncertaintyEstimator {
 public:
  AgentEnsembleEstimator(
      std::vector<std::shared_ptr<nn::ActorCriticNet>> members,
      std::size_t discard = 2);

  void Reset() override {}
  double Score(const mdp::State& state) override;
  void ScoreBatch(std::span<const mdp::State> states,
                  std::span<double> out) override;
  bool Ready() const override { return true; }
  std::string Name() const override { return "agent_ensemble"; }

  std::size_t MemberCount() const { return members_.size(); }

  /// The shared immutable scoring model (weight snapshot + trim math).
  std::shared_ptr<const EnsembleModel> model() const { return model_; }

 private:
  std::vector<std::shared_ptr<nn::ActorCriticNet>> members_;
  std::shared_ptr<const EnsembleModel> model_;
  EnsembleModel::Scratch scratch_;
};

/// U_V: sum of absolute deviations of surviving members' values from the
/// survivors' mean value.
class ValueEnsembleEstimator final : public UncertaintyEstimator {
 public:
  ValueEnsembleEstimator(
      std::vector<std::shared_ptr<nn::CompositeNet>> members,
      std::size_t discard = 2);

  void Reset() override {}
  double Score(const mdp::State& state) override;
  void ScoreBatch(std::span<const mdp::State> states,
                  std::span<double> out) override;
  bool Ready() const override { return true; }
  std::string Name() const override { return "value_ensemble"; }

  std::size_t MemberCount() const { return members_.size(); }

  /// The shared immutable scoring model (weight snapshot + trim math).
  std::shared_ptr<const EnsembleModel> model() const { return model_; }

 private:
  std::vector<std::shared_ptr<nn::CompositeNet>> members_;
  std::shared_ptr<const EnsembleModel> model_;
  EnsembleModel::Scratch scratch_;
};

}  // namespace osap::core
