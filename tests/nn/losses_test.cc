#include "nn/losses.h"

#include <gtest/gtest.h>

#include <cmath>

#include "testing/gradcheck.h"
#include "nn/sequential.h"

namespace osap::nn {
namespace {

TEST(Softmax, SumsToOne) {
  const std::vector<double> logits = {1.0, 2.0, 3.0};
  const auto p = Softmax(logits);
  double sum = 0.0;
  for (double v : p) {
    EXPECT_GT(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Softmax, MonotoneInLogits) {
  const auto p = Softmax(std::vector<double>{1.0, 3.0, 2.0});
  EXPECT_GT(p[1], p[2]);
  EXPECT_GT(p[2], p[0]);
}

TEST(Softmax, InvariantToConstantShift) {
  const auto p1 = Softmax(std::vector<double>{1.0, 2.0});
  const auto p2 = Softmax(std::vector<double>{101.0, 102.0});
  EXPECT_NEAR(p1[0], p2[0], 1e-12);
}

TEST(Softmax, NumericallyStableForHugeLogits) {
  const auto p = Softmax(std::vector<double>{1000.0, 999.0});
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
}

TEST(SoftmaxRows, NormalizesEachRow) {
  const Matrix logits(2, 3, {1, 2, 3, 3, 2, 1});
  const Matrix p = SoftmaxRows(logits);
  for (std::size_t r = 0; r < 2; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 3; ++c) sum += p.At(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  EXPECT_NEAR(p.At(0, 0), p.At(1, 2), 1e-12);
}

TEST(PolicyGradientLoss, MatchesClosedFormForSingleStep) {
  // One state, two actions, logits (0, 0) -> p = (.5, .5).
  const Matrix logits(1, 2, {0.0, 0.0});
  const std::vector<int> actions = {0};
  const std::vector<double> adv = {2.0};
  const auto result = PolicyGradientLoss(logits, actions, adv, 0.0);
  EXPECT_NEAR(result.loss, -2.0 * std::log(0.5), 1e-12);
  // dL/dz = A*(p - onehot): (2*(0.5-1), 2*0.5) = (-1, 1).
  EXPECT_NEAR(result.grad.At(0, 0), -1.0, 1e-12);
  EXPECT_NEAR(result.grad.At(0, 1), 1.0, 1e-12);
}

TEST(PolicyGradientLoss, EntropyTermLowersLossOfUniformPolicy) {
  const Matrix logits(1, 2, {0.0, 0.0});
  const std::vector<int> actions = {0};
  const std::vector<double> adv = {0.0};
  const auto with = PolicyGradientLoss(logits, actions, adv, 1.0);
  EXPECT_NEAR(with.loss, -std::log(2.0), 1e-12);
}

TEST(PolicyGradientLoss, NegativeAdvantagePushesActionDown) {
  const Matrix logits(1, 3, {0.0, 0.0, 0.0});
  const std::vector<int> actions = {1};
  const std::vector<double> adv = {-1.5};
  const auto result = PolicyGradientLoss(logits, actions, adv, 0.0);
  // Gradient ascent direction on the chosen logit is negative advantage:
  // dL/dz_1 = A*(p-1) = -1.5*(1/3-1) > 0 pushes z_1 down on a descent step.
  EXPECT_GT(result.grad.At(0, 1), 0.0);
  EXPECT_LT(result.grad.At(0, 0), 0.0);
}

TEST(PolicyGradientLoss, GradientMatchesFiniteDifferencesThroughMlp) {
  Rng rng(17);
  Sequential mlp = MakeMlp(5, {12}, 4, rng);
  Matrix x(3, 5);
  for (double& v : x.values()) v = rng.Uniform(-1, 1);
  const std::vector<int> actions = {0, 3, 2};
  const std::vector<double> adv = {1.2, -0.4, 0.8};
  const double entropy_coef = 0.25;
  auto loss_fn = [&] {
    return PolicyGradientLoss(mlp.Forward(x), actions, adv, entropy_coef)
        .loss;
  };
  auto backward_fn = [&] {
    ZeroGrads(mlp.Params());
    const auto result =
        PolicyGradientLoss(mlp.Forward(x), actions, adv, entropy_coef);
    mlp.Backward(result.grad);
  };
  const auto check = CheckGradients(mlp.Params(), loss_fn, backward_fn);
  EXPECT_LT(check.max_rel_error, 1e-5);
}

TEST(PolicyGradientLoss, ValidatesInputs) {
  const Matrix logits(2, 3);
  const std::vector<int> one_action = {0};
  const std::vector<double> two_adv = {1.0, 1.0};
  EXPECT_THROW(PolicyGradientLoss(logits, one_action, two_adv, 0.0),
               std::invalid_argument);
  const std::vector<int> bad_action = {0, 7};
  EXPECT_THROW(PolicyGradientLoss(logits, bad_action, two_adv, 0.0),
               std::invalid_argument);
}

TEST(MseLoss, ZeroForPerfectPrediction) {
  const Matrix pred(2, 1, {1.0, 2.0});
  const auto result = MseLoss(pred, pred);
  EXPECT_DOUBLE_EQ(result.loss, 0.0);
  for (double g : result.grad.values()) EXPECT_DOUBLE_EQ(g, 0.0);
}

TEST(MseLoss, MatchesClosedForm) {
  const Matrix pred(2, 1, {1.0, 3.0});
  const Matrix target(2, 1, {0.0, 1.0});
  const auto result = MseLoss(pred, target);
  // mean over elements of 0.5*d^2: 0.5*(1 + 4)/2 = 1.25.
  EXPECT_DOUBLE_EQ(result.loss, 1.25);
  EXPECT_DOUBLE_EQ(result.grad.At(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(result.grad.At(1, 0), 1.0);
}

TEST(MseLoss, GradientMatchesFiniteDifferencesThroughMlp) {
  Rng rng(19);
  Sequential mlp = MakeMlp(4, {8}, 1, rng);
  Matrix x(6, 4);
  for (double& v : x.values()) v = rng.Uniform(-1, 1);
  Matrix target(6, 1);
  for (double& v : target.values()) v = rng.Uniform(-2, 2);
  auto loss_fn = [&] { return MseLoss(mlp.Forward(x), target).loss; };
  auto backward_fn = [&] {
    ZeroGrads(mlp.Params());
    const auto result = MseLoss(mlp.Forward(x), target);
    mlp.Backward(result.grad);
  };
  const auto check = CheckGradients(mlp.Params(), loss_fn, backward_fn);
  EXPECT_LT(check.max_rel_error, 1e-5);
}

TEST(MseLoss, RejectsShapeMismatch) {
  EXPECT_THROW(MseLoss(Matrix(2, 1), Matrix(1, 2)), std::invalid_argument);
}

}  // namespace
}  // namespace osap::nn
