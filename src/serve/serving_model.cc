#include "serve/serving_model.h"

#include <algorithm>
#include <utility>

#include "core/artifacts.h"
#include "nn/losses.h"
#include "util/check.h"

namespace osap::serve {

namespace {

std::vector<const nn::CompositeNet*> DeployedActorView(
    const std::vector<std::shared_ptr<nn::ActorCriticNet>>& agents) {
  OSAP_REQUIRE(!agents.empty() && agents.front() != nullptr,
               "ServingModel: no deployed agent");
  return {&agents.front()->actor()};
}

std::vector<const nn::CompositeNet*> ActorViews(
    const std::vector<std::shared_ptr<nn::ActorCriticNet>>& agents) {
  std::vector<const nn::CompositeNet*> views;
  views.reserve(agents.size());
  for (const auto& a : agents) views.push_back(a ? &a->actor() : nullptr);
  return views;
}

std::vector<const nn::CompositeNet*> NetViews(
    const std::vector<std::shared_ptr<nn::CompositeNet>>& nets) {
  std::vector<const nn::CompositeNet*> views;
  views.reserve(nets.size());
  for (const auto& n : nets) views.push_back(n.get());
  return views;
}

}  // namespace

ServingModel::ServingModel(
    Signal signal,
    const std::vector<std::shared_ptr<nn::ActorCriticNet>>& agents,
    std::shared_ptr<const core::EnsembleModel> uncertainty,
    std::shared_ptr<const core::NoveltyDetector> novelty,
    const abr::VideoSpec& video, const abr::AbrStateLayout& layout,
    core::SafeAgentConfig safety)
    : signal_(signal),
      uncertainty_(std::move(uncertainty)),
      novelty_(std::move(novelty)),
      actor_(DeployedActorView(agents)),
      fallback_(video, layout),
      layout_(layout),
      safety_(safety) {
  OSAP_REQUIRE(actor_.InputSize() == layout_.Size(),
               "ServingModel: actor input does not match the state layout");
}

std::shared_ptr<const ServingModel> ServingModel::AgentEnsemble(
    std::vector<std::shared_ptr<nn::ActorCriticNet>> agents,
    std::size_t discard, const abr::VideoSpec& video,
    const abr::AbrStateLayout& layout, core::SafeAgentConfig safety) {
  auto uncertainty = std::make_shared<const core::EnsembleModel>(
      core::EnsembleModel::Kind::kPolicyKl, ActorViews(agents), discard);
  return std::shared_ptr<const ServingModel>(
      new ServingModel(Signal::kAgentEnsemble, agents, std::move(uncertainty),
                       nullptr, video, layout, safety));
}

std::shared_ptr<const ServingModel> ServingModel::ValueEnsemble(
    std::vector<std::shared_ptr<nn::ActorCriticNet>> agents,
    std::vector<std::shared_ptr<nn::CompositeNet>> value_nets,
    std::size_t discard, const abr::VideoSpec& video,
    const abr::AbrStateLayout& layout, core::SafeAgentConfig safety) {
  auto uncertainty = std::make_shared<const core::EnsembleModel>(
      core::EnsembleModel::Kind::kValueDeviation, NetViews(value_nets),
      discard);
  return std::shared_ptr<const ServingModel>(
      new ServingModel(Signal::kValueEnsemble, agents, std::move(uncertainty),
                       nullptr, video, layout, safety));
}

std::shared_ptr<const ServingModel> ServingModel::Novelty(
    std::vector<std::shared_ptr<nn::ActorCriticNet>> agents,
    std::shared_ptr<const core::NoveltyDetector> novelty,
    const abr::VideoSpec& video, const abr::AbrStateLayout& layout,
    core::SafeAgentConfig safety) {
  OSAP_REQUIRE(novelty != nullptr && novelty->Fitted(),
               "ServingModel::Novelty: detector must be fitted");
  return std::shared_ptr<const ServingModel>(
      new ServingModel(Signal::kNovelty, agents, nullptr, std::move(novelty),
                       video, layout, safety));
}

std::shared_ptr<const ServingModel> ServingModel::ForScheme(
    const core::ArtifactCache& cache, core::Scheme scheme,
    const core::TrainedBundle& bundle, core::SafeAgentConfig safety) {
  const std::size_t discard = cache.config().ensemble_discard;
  switch (scheme) {
    case core::Scheme::kNoveltyDetection:
      return Novelty(bundle.agents, bundle.novelty, cache.eval_video(),
                     cache.layout(), safety);
    case core::Scheme::kAgentEnsemble:
      return AgentEnsemble(bundle.agents, discard, cache.eval_video(),
                           cache.layout(), safety);
    case core::Scheme::kValueEnsemble:
      return ValueEnsemble(bundle.agents, bundle.value_nets, discard,
                           cache.eval_video(), cache.layout(), safety);
    default:
      OSAP_REQUIRE(false, "ServingModel::ForScheme: not a safety scheme");
      return nullptr;
  }
}

void ServingModel::UncertaintyScores(const nn::Matrix& states,
                                     std::span<double> out,
                                     std::span<mdp::Action> greedy_actions,
                                     Scratch& scratch) const {
  OSAP_REQUIRE(uncertainty_ != nullptr,
               "UncertaintyScores: not an ensemble deployment");
  OSAP_REQUIRE(greedy_actions.empty() || ScoresYieldActions(),
               "UncertaintyScores: only U_pi yields actions");
  uncertainty_->ScorePacked(states, out, greedy_actions, scratch);
}

void ServingModel::NoveltyDecisionValues(const double* rows,
                                         std::size_t count,
                                         std::span<double> out) const {
  OSAP_REQUIRE(novelty_ != nullptr,
               "NoveltyDecisionValues: not a novelty deployment");
  novelty_->model().DecisionValues(rows, count, out);
}

const core::NoveltyDetectorConfig& ServingModel::NoveltyConfig() const {
  OSAP_REQUIRE(novelty_ != nullptr,
               "NoveltyConfig: not a novelty deployment");
  return novelty_->config();
}

const core::NoveltyDetector::Probe& ServingModel::NoveltyProbe() const {
  OSAP_REQUIRE(novelty_ != nullptr,
               "NoveltyProbe: not a novelty deployment");
  return novelty_->probe();
}

void ServingModel::GreedyActions(const nn::Matrix& states,
                                 std::span<mdp::Action> out,
                                 Scratch& scratch) const {
  const std::size_t batch = states.rows();
  if (batch == 0) return;
  OSAP_REQUIRE(out.size() >= batch, "GreedyActions: output span too short");
  scratch.probs.ReshapeUninitialized(1, ActionCount());
  const std::span<double> probs = scratch.probs.Row(0);
  // One batched pass over the deployed actor's weights, then per row the
  // exact greedy selection PensievePolicy runs: softmax the logits and
  // take the FIRST maximal probability. Argmax over raw logits could
  // disagree bitwise (softmax rounding can map distinct logits to equal
  // probabilities, shifting which index max_element picks), so the
  // softmax is replicated rather than skipped.
  const nn::Matrix& logits = actor_.InferBatch(states, scratch.actor);
  for (std::size_t b = 0; b < batch; ++b) {
    nn::SoftmaxInto(logits.Row(b), probs);
    out[b] = static_cast<mdp::Action>(std::distance(
        probs.begin(), std::max_element(probs.begin(), probs.end())));
  }
}

mdp::Action ServingModel::FallbackAction(const mdp::State& state) const {
  OSAP_REQUIRE(state.size() == layout_.Size(),
               "FallbackAction: state size mismatch");
  return static_cast<mdp::Action>(
      fallback_.LevelForBuffer(layout_.BufferSeconds(state)));
}

}  // namespace osap::serve
