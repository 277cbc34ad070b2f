#include "core/ensemble_estimators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "abr/state.h"
#include "policies/pensieve_net.h"

namespace osap::core {
namespace {

abr::AbrStateLayout Layout() { return abr::AbrStateLayout{}; }

std::vector<std::shared_ptr<nn::ActorCriticNet>> MakeAgents(
    std::size_t n, std::uint64_t seed_base) {
  std::vector<std::shared_ptr<nn::ActorCriticNet>> agents;
  for (std::size_t i = 0; i < n; ++i) {
    Rng rng(seed_base + i);
    agents.push_back(std::make_shared<nn::ActorCriticNet>(
        policies::MakePensieveActorCritic(Layout(), {}, rng)));
  }
  return agents;
}

std::vector<std::shared_ptr<nn::CompositeNet>> MakeValueNets(
    std::size_t n, std::uint64_t seed_base) {
  std::vector<std::shared_ptr<nn::CompositeNet>> nets;
  for (std::size_t i = 0; i < n; ++i) {
    Rng rng(seed_base + i);
    nets.push_back(std::make_shared<nn::CompositeNet>(
        policies::BuildPensieveNet(Layout(), 1, {}, rng)));
  }
  return nets;
}

TEST(SurvivingMembers, KeepsSmallestDistances) {
  const std::vector<double> d = {5.0, 1.0, 3.0, 0.5, 4.0};
  const auto survivors = SurvivingMembers(d, 3);
  EXPECT_EQ(survivors, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(SurvivingMembers, StableOnTies) {
  const std::vector<double> d = {1.0, 1.0, 1.0, 1.0};
  const auto survivors = SurvivingMembers(d, 2);
  EXPECT_EQ(survivors, (std::vector<std::size_t>{0, 1}));
}

TEST(SurvivingMembers, KeepAllIsIdentity) {
  const std::vector<double> d = {3.0, 1.0};
  const auto survivors = SurvivingMembers(d, 2);
  EXPECT_EQ(survivors, (std::vector<std::size_t>{0, 1}));
}

TEST(SurvivingMembers, ValidatesKeep) {
  const std::vector<double> d = {1.0};
  EXPECT_THROW(SurvivingMembers(d, 0), std::invalid_argument);
  EXPECT_THROW(SurvivingMembers(d, 2), std::invalid_argument);
}

TEST(AgentEnsembleEstimator, IdenticalMembersScoreZero) {
  // Five copies of the same network: perfect agreement.
  Rng rng(1);
  auto net = std::make_shared<nn::ActorCriticNet>(
      policies::MakePensieveActorCritic(Layout(), {}, rng));
  std::vector<std::shared_ptr<nn::ActorCriticNet>> agents(5, net);
  AgentEnsembleEstimator estimator(agents, 2);
  const mdp::State state(Layout().Size(), 0.3);
  EXPECT_NEAR(estimator.Score(state), 0.0, 1e-12);
}

TEST(AgentEnsembleEstimator, DisagreementYieldsPositiveScore) {
  AgentEnsembleEstimator estimator(MakeAgents(5, 100), 2);
  const mdp::State state(Layout().Size(), 0.3);
  EXPECT_GT(estimator.Score(state), 0.0);
}

TEST(AgentEnsembleEstimator, TrimmingRemovesOutlierInfluence) {
  // 4 identical members + 1 wildly different: with discard=1 the outlier
  // is dropped and the score collapses to ~0; with discard=0 it does not.
  Rng rng(2);
  auto common = std::make_shared<nn::ActorCriticNet>(
      policies::MakePensieveActorCritic(Layout(), {}, rng));
  Rng rng2(999);
  auto outlier = std::make_shared<nn::ActorCriticNet>(
      policies::MakePensieveActorCritic(Layout(), {}, rng2));
  std::vector<std::shared_ptr<nn::ActorCriticNet>> agents = {
      common, common, common, common, outlier};
  const mdp::State state(Layout().Size(), 0.4);
  AgentEnsembleEstimator trimmed(agents, 1);
  AgentEnsembleEstimator untrimmed(agents, 0);
  EXPECT_NEAR(trimmed.Score(state), 0.0, 1e-9);
  EXPECT_GT(untrimmed.Score(state), trimmed.Score(state));
}

TEST(AgentEnsembleEstimator, AlwaysReady) {
  AgentEnsembleEstimator estimator(MakeAgents(3, 10), 1);
  EXPECT_TRUE(estimator.Ready());
  estimator.Reset();  // no-op, must not throw
  EXPECT_TRUE(estimator.Ready());
}

TEST(AgentEnsembleEstimator, ValidatesConstruction) {
  EXPECT_THROW(AgentEnsembleEstimator({}, 0), std::invalid_argument);
  auto agents = MakeAgents(3, 20);
  EXPECT_THROW(AgentEnsembleEstimator(agents, 3), std::invalid_argument);
}

TEST(ValueEnsembleEstimator, IdenticalMembersScoreZero) {
  Rng rng(3);
  auto net = std::make_shared<nn::CompositeNet>(
      policies::BuildPensieveNet(Layout(), 1, {}, rng));
  std::vector<std::shared_ptr<nn::CompositeNet>> nets(5, net);
  ValueEnsembleEstimator estimator(nets, 2);
  EXPECT_NEAR(estimator.Score(mdp::State(Layout().Size(), 0.2)), 0.0,
              1e-12);
}

TEST(ValueEnsembleEstimator, DisagreementYieldsPositiveScore) {
  ValueEnsembleEstimator estimator(MakeValueNets(5, 200), 2);
  EXPECT_GT(estimator.Score(mdp::State(Layout().Size(), 0.2)), 0.0);
}

TEST(ValueEnsembleEstimator, ScoreMatchesManualComputation) {
  // 3 members, keep all: score = sum |v_i - mean|.
  auto nets = MakeValueNets(3, 300);
  ValueEnsembleEstimator estimator(nets, 0);
  const mdp::State state(Layout().Size(), 0.35);
  std::vector<double> values;
  for (const auto& n : nets) {
    values.push_back(n->Forward(nn::Matrix::RowVector(state)).At(0, 0));
  }
  const double mean = (values[0] + values[1] + values[2]) / 3.0;
  double expected = 0.0;
  for (double v : values) expected += std::abs(v - mean);
  EXPECT_NEAR(estimator.Score(state), expected, 1e-12);
}

TEST(ValueEnsembleEstimator, TrimmingDropsFarthestValues) {
  auto nets = MakeValueNets(5, 400);
  const mdp::State state(Layout().Size(), 0.15);
  ValueEnsembleEstimator trimmed(nets, 2);
  ValueEnsembleEstimator untrimmed(nets, 0);
  EXPECT_LT(trimmed.Score(state), untrimmed.Score(state));
}

/// A spread of pseudo-random states covering more than one ScoreStates
/// pack (kRowTile rows each).
std::vector<mdp::State> MakeStates(std::size_t count) {
  Rng rng(77);
  std::vector<mdp::State> states;
  for (std::size_t i = 0; i < count; ++i) {
    mdp::State s(Layout().Size());
    for (double& v : s) v = rng.Normal(0.0, 1.0);
    states.push_back(std::move(s));
  }
  return states;
}

/// Packs states[begin, begin + count) as rows of one matrix.
nn::Matrix Pack(const std::vector<mdp::State>& states, std::size_t begin,
                std::size_t count) {
  nn::Matrix packed(count, states.front().size());
  for (std::size_t b = 0; b < count; ++b) {
    std::copy(states[begin + b].begin(), states[begin + b].end(),
              packed.Row(b).data());
  }
  return packed;
}

/// ScoreBatch and ScorePacked - all 71 states in one pack, and in packs
/// of 4 (the last one partial) - must give each state Score's bits.
/// `greedy` asks ScorePacked for member 0's greedy actions too, which
/// must not change a score.
void ExpectEntriesAgree(UncertaintyEstimator& estimator,
                        const EnsembleModel& model, bool greedy) {
  const auto states = MakeStates(71);
  std::vector<double> batched(states.size());
  estimator.ScoreBatch(states, batched);
  std::vector<double> one_pack(states.size());
  std::vector<mdp::Action> actions(greedy ? states.size() : 0);
  model.ScorePacked(Pack(states, 0, states.size()), one_pack, actions);
  std::vector<double> packs_of_4(states.size());
  for (std::size_t begin = 0; begin < states.size(); begin += 4) {
    const std::size_t count = std::min<std::size_t>(4, states.size() - begin);
    model.ScorePacked(Pack(states, begin, count),
                      std::span(packs_of_4).subspan(begin, count));
  }
  for (std::size_t i = 0; i < states.size(); ++i) {
    const double score = estimator.Score(states[i]);
    EXPECT_EQ(batched[i], score) << "ScoreBatch, state " << i;
    EXPECT_EQ(one_pack[i], score) << "ScorePacked, state " << i;
    EXPECT_EQ(packs_of_4[i], score) << "ScorePacked by 4, state " << i;
  }
}

TEST(AgentEnsembleEstimator, ScoreBatchMatchesSequentialScoreBitForBit) {
  AgentEnsembleEstimator estimator(MakeAgents(5, 500), 2);
  ExpectEntriesAgree(estimator, *estimator.model(), /*greedy=*/true);
}

TEST(ValueEnsembleEstimator, ScoreBatchMatchesSequentialScoreBitForBit) {
  ValueEnsembleEstimator estimator(MakeValueNets(5, 600), 2);
  ExpectEntriesAgree(estimator, *estimator.model(), /*greedy=*/false);
}

TEST(ValueEnsembleEstimator, RejectsMultiOutputMembers) {
  Rng rng(5);
  auto bad = std::make_shared<nn::CompositeNet>(
      policies::BuildPensieveNet(Layout(), 2, {}, rng));
  std::vector<std::shared_ptr<nn::CompositeNet>> nets = {bad};
  EXPECT_THROW(ValueEnsembleEstimator(nets, 0), std::invalid_argument);
}

}  // namespace
}  // namespace osap::core
