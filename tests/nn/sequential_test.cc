#include "nn/sequential.h"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/actor_critic_net.h"
#include "testing/gradcheck.h"
#include "nn/losses.h"

namespace osap::nn {
namespace {

Matrix RandomBatch(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix x(rows, cols);
  for (double& v : x.values()) v = rng.Uniform(-1.0, 1.0);
  return x;
}

TEST(Sequential, RejectsMismatchedLayerWidths) {
  Rng rng(1);
  Sequential seq;
  seq.Add(std::make_unique<Linear>(4, 8, rng));
  EXPECT_THROW(seq.Add(std::make_unique<Linear>(9, 2, rng)),
               std::invalid_argument);
}

TEST(Sequential, ForwardOnEmptyThrows) {
  Sequential seq;
  EXPECT_THROW(seq.Forward(Matrix(1, 1)), std::invalid_argument);
}

TEST(MakeMlp, BuildsRequestedTopology) {
  Rng rng(2);
  Sequential mlp = MakeMlp(10, {32, 16}, 4, rng);
  EXPECT_EQ(mlp.InputSize(), 10u);
  EXPECT_EQ(mlp.OutputSize(), 4u);
  // Linear+ReLU per hidden layer plus the head Linear.
  EXPECT_EQ(mlp.LayerCount(), 5u);
  // Param count: (10*32+32) + (32*16+16) + (16*4+4).
  EXPECT_EQ(ParamCount(mlp.Params()), 10u * 32 + 32 + 32 * 16 + 16 + 16 * 4 + 4);
}

TEST(MakeMlp, GradientsFlowThroughWholeStack) {
  Rng rng(3);
  Sequential mlp = MakeMlp(6, {10, 8}, 3, rng);
  const Matrix x = RandomBatch(4, 6, rng);
  Matrix target(4, 3);
  for (double& v : target.values()) v = rng.Uniform(-1, 1);
  auto loss_fn = [&] { return MseLoss(mlp.Forward(x), target).loss; };
  auto backward_fn = [&] {
    ZeroGrads(mlp.Params());
    mlp.Backward(MseLoss(mlp.Forward(x), target).grad);
  };
  const auto check = CheckGradients(mlp.Params(), loss_fn, backward_fn);
  EXPECT_LT(check.max_rel_error, 1e-5);
}

CompositeNet MakeTestComposite(Rng& rng) {
  // Input width 7: scalar branch on col 0, conv branch on cols 1-6.
  CompositeNet net;
  Sequential scalar;
  scalar.AddLinearReLU(1, 4, rng);
  net.AddBranch(0, 1, std::move(scalar));
  Sequential conv;
  auto c = std::make_unique<Conv1D>(1, 2, 3, 6, rng);
  const std::size_t out = c->OutputSize();
  conv.Add(std::move(c));
  conv.Add(std::make_unique<ReLU>(out));
  net.AddBranch(1, 6, std::move(conv));
  Sequential trunk;
  trunk.AddLinearReLU(4 + out, 8, rng);
  trunk.Add(std::make_unique<Linear>(8, 2, rng));
  net.SetTrunk(std::move(trunk));
  return net;
}

TEST(CompositeNet, ShapesAreConsistent) {
  Rng rng(4);
  CompositeNet net = MakeTestComposite(rng);
  EXPECT_EQ(net.InputSize(), 7u);
  EXPECT_EQ(net.OutputSize(), 2u);
  const Matrix y = net.Forward(Matrix(3, 7));
  EXPECT_EQ(y.rows(), 3u);
  EXPECT_EQ(y.cols(), 2u);
}

TEST(CompositeNet, TrunkWidthValidated) {
  Rng rng(5);
  CompositeNet net;
  Sequential branch;
  branch.AddLinearReLU(2, 4, rng);
  net.AddBranch(0, 2, std::move(branch));
  Sequential trunk;
  trunk.AddLinearReLU(5, 2, rng);  // should be 4
  EXPECT_THROW(net.SetTrunk(std::move(trunk)), std::invalid_argument);
}

TEST(CompositeNet, BranchWidthValidated) {
  Rng rng(6);
  CompositeNet net;
  Sequential branch;
  branch.AddLinearReLU(3, 4, rng);
  EXPECT_THROW(net.AddBranch(0, 2, std::move(branch)),
               std::invalid_argument);
}

TEST(CompositeNet, GradientsMatchFiniteDifferences) {
  Rng rng(7);
  CompositeNet net = MakeTestComposite(rng);
  const Matrix x = RandomBatch(3, 7, rng);
  Matrix target(3, 2);
  for (double& v : target.values()) v = rng.Uniform(-1, 1);
  auto loss_fn = [&] { return MseLoss(net.Forward(x), target).loss; };
  auto backward_fn = [&] {
    ZeroGrads(net.Params());
    net.Backward(MseLoss(net.Forward(x), target).grad);
  };
  const auto check = CheckGradients(net.Params(), loss_fn, backward_fn);
  EXPECT_LT(check.max_rel_error, 1e-5);
}

TEST(CompositeNet, InputGradientCoversAllBranches) {
  Rng rng(8);
  CompositeNet net = MakeTestComposite(rng);
  const Matrix x = RandomBatch(1, 7, rng);
  net.Forward(x);
  const Matrix dx = net.Backward(Matrix(1, 2, {1.0, -1.0}));
  EXPECT_EQ(dx.rows(), 1u);
  EXPECT_EQ(dx.cols(), 7u);
  // With random weights, gradient should reach both column regions.
  double scalar_grad = std::abs(dx.At(0, 0));
  double conv_grad = 0.0;
  for (std::size_t c = 1; c < 7; ++c) conv_grad += std::abs(dx.At(0, c));
  EXPECT_GT(scalar_grad + conv_grad, 0.0);
}

TEST(CopyParams, TransfersValues) {
  Rng rng(9);
  Sequential a = MakeMlp(3, {4}, 2, rng);
  Sequential b = MakeMlp(3, {4}, 2, rng);
  CopyParams(a.Params(), b.Params());
  const Matrix x = RandomBatch(2, 3, rng);
  const Matrix ya = a.Forward(x);
  const Matrix yb = b.Forward(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_DOUBLE_EQ(ya.values()[i], yb.values()[i]);
  }
}

TEST(ActorCriticNet, ActionProbsAreADistribution) {
  Rng rng(10);
  CompositeNet actor = MakeTestComposite(rng);
  // Critic with one output over the same input width.
  CompositeNet critic;
  Sequential branch;
  branch.AddLinearReLU(7, 6, rng);
  critic.AddBranch(0, 7, std::move(branch));
  Sequential trunk;
  trunk.Add(std::make_unique<Linear>(6, 1, rng));
  critic.SetTrunk(std::move(trunk));

  ActorCriticNet net(std::move(actor), std::move(critic));
  const std::vector<double> state(7, 0.3);
  const auto probs = net.ActionProbs(state);
  ASSERT_EQ(probs.size(), 2u);
  EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-12);
  EXPECT_TRUE(std::isfinite(net.Value(state)));
}

TEST(ActorCriticNet, RejectsMultiOutputCritic) {
  Rng rng(11);
  CompositeNet actor = MakeTestComposite(rng);
  CompositeNet critic = MakeTestComposite(rng);  // outputs 2
  EXPECT_THROW(ActorCriticNet(std::move(actor), std::move(critic)),
               std::invalid_argument);
}

}  // namespace
}  // namespace osap::nn
