#include "core/ensemble_estimators.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace osap::core {

std::vector<std::size_t> SurvivingMembers(
    const std::vector<double>& distances_from_mean, std::size_t keep) {
  OSAP_REQUIRE(keep > 0 && keep <= distances_from_mean.size(),
               "SurvivingMembers: keep must be in [1, member count]");
  std::vector<std::size_t> order(distances_from_mean.size());
  std::iota(order.begin(), order.end(), 0);
  // Stable sort so equal distances keep ensemble order (determinism).
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return distances_from_mean[a] < distances_from_mean[b];
                   });
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

namespace {

// Null members become null pointers here so BatchedEnsemble's own
// validation (throwing std::invalid_argument) runs before any dereference.
std::vector<const nn::CompositeNet*> ActorViews(
    const std::vector<std::shared_ptr<nn::ActorCriticNet>>& members) {
  std::vector<const nn::CompositeNet*> views;
  views.reserve(members.size());
  for (const auto& m : members) views.push_back(m ? &m->actor() : nullptr);
  return views;
}

std::vector<const nn::CompositeNet*> NetViews(
    const std::vector<std::shared_ptr<nn::CompositeNet>>& members) {
  std::vector<const nn::CompositeNet*> views;
  views.reserve(members.size());
  for (const auto& m : members) views.push_back(m.get());
  return views;
}

}  // namespace

AgentEnsembleEstimator::AgentEnsembleEstimator(
    std::vector<std::shared_ptr<nn::ActorCriticNet>> members,
    std::size_t discard)
    : members_(std::move(members)),
      model_(std::make_shared<const EnsembleModel>(
          EnsembleModel::Kind::kPolicyKl, ActorViews(members_), discard)) {}

double AgentEnsembleEstimator::Score(const mdp::State& state) {
  double score = 0.0;
  model_->ScoreStates({&state, 1}, {&score, 1}, scratch_);
  return score;
}

void AgentEnsembleEstimator::ScoreBatch(std::span<const mdp::State> states,
                                        std::span<double> out) {
  model_->ScoreStates(states, out, scratch_);
}

ValueEnsembleEstimator::ValueEnsembleEstimator(
    std::vector<std::shared_ptr<nn::CompositeNet>> members,
    std::size_t discard)
    : members_(std::move(members)),
      model_(std::make_shared<const EnsembleModel>(
          EnsembleModel::Kind::kValueDeviation, NetViews(members_),
          discard)) {}

double ValueEnsembleEstimator::Score(const mdp::State& state) {
  double score = 0.0;
  model_->ScoreStates({&state, 1}, {&score, 1}, scratch_);
  return score;
}

void ValueEnsembleEstimator::ScoreBatch(std::span<const mdp::State> states,
                                        std::span<double> out) {
  model_->ScoreStates(states, out, scratch_);
}

}  // namespace osap::core
