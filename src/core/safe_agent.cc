#include "core/safe_agent.h"

#include "util/check.h"

namespace osap::core {

SafeAgent::SafeAgent(std::shared_ptr<mdp::Policy> learned,
                     std::shared_ptr<mdp::Policy> fallback,
                     std::shared_ptr<UncertaintyEstimator> estimator,
                     SafeAgentConfig config)
    : learned_(std::move(learned)),
      fallback_(std::move(fallback)),
      estimator_(std::move(estimator)),
      core_(config) {
  OSAP_REQUIRE(learned_ != nullptr, "SafeAgent: null learned policy");
  OSAP_REQUIRE(fallback_ != nullptr, "SafeAgent: null default policy");
  OSAP_REQUIRE(estimator_ != nullptr, "SafeAgent: null estimator");
}

mdp::Action SafeAgent::SelectAction(const mdp::State& state) {
  // A kPermanent session that has defaulted answers from the fallback
  // without scoring: its score can never change a decision again.
  if (core_.StepDefaulted()) return fallback_->SelectAction(state);
  // Otherwise the estimator scores this step: every step until a default,
  // and in kRevocable every step after it too (its sliding windows are
  // what make revocation meaningful).
  const double score = estimator_->Score(state);
  if (core_.Observe(score)) {
    return fallback_->SelectAction(state);
  }
  return learned_->SelectAction(state);
}

void SafeAgent::Reset() {
  learned_->Reset();
  fallback_->Reset();
  estimator_->Reset();
  core_.Reset();
}

std::string SafeAgent::Name() const {
  return "safe(" + learned_->Name() + "->" + fallback_->Name() + "," +
         estimator_->Name() + ")";
}

}  // namespace osap::core
