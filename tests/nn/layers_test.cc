#include "nn/layers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "testing/gradcheck.h"
#include "nn/sequential.h"

namespace osap::nn {
namespace {

/// Sums all outputs of a layer (scalar loss for gradient checking).
double SumForward(Layer& layer, const Matrix& x) {
  const Matrix y = layer.Forward(x);
  double s = 0.0;
  // Weight each output element differently so gradients are not symmetric.
  for (std::size_t i = 0; i < y.size(); ++i) {
    s += y.values()[i] * (0.3 + 0.7 * static_cast<double>(i % 5));
  }
  return s;
}

void BackwardWeighted(Layer& layer, const Matrix& x) {
  ZeroGrads(layer.Params());
  const Matrix y = layer.Forward(x);
  Matrix dy(y.rows(), y.cols());
  for (std::size_t i = 0; i < dy.size(); ++i) {
    dy.values()[i] = 0.3 + 0.7 * static_cast<double>(i % 5);
  }
  layer.Backward(dy);
}

Matrix RandomBatch(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix x(rows, cols);
  for (double& v : x.values()) v = rng.Uniform(-1.0, 1.0);
  return x;
}

TEST(Linear, ForwardMatchesManualAffine) {
  Rng rng(1);
  Linear lin(2, 2, rng);
  // Overwrite weights with known values.
  lin.weight().value = Matrix(2, 2, {1, 2, 3, 4});
  lin.bias().value = Matrix(1, 2, {10, 20});
  const Matrix x(1, 2, {1, 1});
  const Matrix y = lin.Forward(x);
  EXPECT_DOUBLE_EQ(y.At(0, 0), 14.0);  // 1*1 + 1*3 + 10
  EXPECT_DOUBLE_EQ(y.At(0, 1), 26.0);  // 1*2 + 1*4 + 20
}

TEST(Linear, GradientsMatchFiniteDifferences) {
  Rng rng(2);
  Linear lin(4, 3, rng);
  const Matrix x = RandomBatch(5, 4, rng);
  const auto result = CheckGradients(
      lin.Params(), [&] { return SumForward(lin, x); },
      [&] { BackwardWeighted(lin, x); });
  EXPECT_LT(result.max_rel_error, 1e-6);
  EXPECT_EQ(result.checked, 4u * 3u + 3u);
}

TEST(Linear, BackwardAccumulatesAcrossCalls) {
  Rng rng(3);
  Linear lin(2, 2, rng);
  const Matrix x = RandomBatch(1, 2, rng);
  BackwardWeighted(lin, x);
  const Matrix grad_once = lin.weight().grad;
  // Without zeroing, a second pass doubles the gradient.
  const Matrix y = lin.Forward(x);
  Matrix dy(y.rows(), y.cols());
  for (std::size_t i = 0; i < dy.size(); ++i) {
    dy.values()[i] = 0.3 + 0.7 * static_cast<double>(i % 5);
  }
  lin.Backward(dy);
  for (std::size_t i = 0; i < grad_once.size(); ++i) {
    EXPECT_NEAR(lin.weight().grad.values()[i], 2.0 * grad_once.values()[i],
                1e-12);
  }
}

TEST(Linear, XavierInitBounded) {
  Rng rng(4);
  Linear lin(100, 50, rng);
  const double bound = std::sqrt(6.0 / 150.0);
  for (double v : lin.weight().value.values()) {
    EXPECT_LE(std::abs(v), bound);
  }
  for (double v : lin.bias().value.values()) {
    EXPECT_EQ(v, 0.0);
  }
}

TEST(ReLU, ClampsNegativeInputs) {
  ReLU relu(3);
  const Matrix x(1, 3, {-1.0, 0.0, 2.0});
  const Matrix y = relu.Forward(x);
  EXPECT_EQ(y.values(), (std::vector<double>{0.0, 0.0, 2.0}));
}

TEST(ReLU, GradientMasksNegativeRegion) {
  ReLU relu(2);
  const Matrix x(1, 2, {-1.0, 3.0});
  relu.Forward(x);
  const Matrix dy(1, 2, {5.0, 7.0});
  const Matrix dx = relu.Backward(dy);
  EXPECT_EQ(dx.values(), (std::vector<double>{0.0, 7.0}));
}

TEST(Tanh, ForwardIsBounded) {
  Tanh tanh_layer(1);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const Matrix x(1, 1, {rng.Uniform(-10, 10)});
    const double y = tanh_layer.Forward(x).At(0, 0);
    EXPECT_GT(y, -1.0);
    EXPECT_LT(y, 1.0);
  }
}

TEST(Tanh, GradientMatchesDerivative) {
  Tanh tanh_layer(1);
  const Matrix x(1, 1, {0.5});
  const double y = tanh_layer.Forward(x).At(0, 0);
  const Matrix dx = tanh_layer.Backward(Matrix(1, 1, {1.0}));
  EXPECT_NEAR(dx.At(0, 0), 1.0 - y * y, 1e-12);
}

TEST(Conv1D, OutputLengthIsValidConvolution) {
  Rng rng(6);
  Conv1D conv(1, 4, 3, 8, rng);
  EXPECT_EQ(conv.OutputLength(), 6u);
  EXPECT_EQ(conv.OutputSize(), 24u);
  EXPECT_EQ(conv.InputSize(), 8u);
}

TEST(Conv1D, KnownSingleFilterConvolution) {
  Rng rng(7);
  Conv1D conv(1, 1, 2, 4, rng);
  // Set filter [1, -1], bias 0.5.
  conv.Params()[0]->value = Matrix(2, 1, {1.0, -1.0});
  conv.Params()[1]->value = Matrix(1, 1, {0.5});
  const Matrix x(1, 4, {3.0, 1.0, 4.0, 1.0});
  const Matrix y = conv.Forward(x);
  ASSERT_EQ(y.cols(), 3u);
  EXPECT_DOUBLE_EQ(y.At(0, 0), 3.0 - 1.0 + 0.5);
  EXPECT_DOUBLE_EQ(y.At(0, 1), 1.0 - 4.0 + 0.5);
  EXPECT_DOUBLE_EQ(y.At(0, 2), 4.0 - 1.0 + 0.5);
}

TEST(Conv1D, GradientsMatchFiniteDifferencesSingleChannel) {
  Rng rng(8);
  Conv1D conv(1, 3, 4, 8, rng);
  const Matrix x = RandomBatch(3, 8, rng);
  const auto result = CheckGradients(
      conv.Params(), [&] { return SumForward(conv, x); },
      [&] { BackwardWeighted(conv, x); });
  EXPECT_LT(result.max_rel_error, 1e-6);
}

TEST(Conv1D, GradientsMatchFiniteDifferencesMultiChannel) {
  Rng rng(9);
  Conv1D conv(2, 3, 3, 6, rng);
  const Matrix x = RandomBatch(2, 12, rng);
  const auto result = CheckGradients(
      conv.Params(), [&] { return SumForward(conv, x); },
      [&] { BackwardWeighted(conv, x); });
  EXPECT_LT(result.max_rel_error, 1e-6);
}

TEST(Conv1D, InputGradientMatchesFiniteDifferences) {
  // Check dL/dInput by treating the input as the "parameter".
  Rng rng(10);
  Conv1D conv(1, 2, 3, 6, rng);
  Param input(Matrix(1, 6, {0.2, -0.4, 0.6, 0.1, -0.3, 0.5}));
  auto loss_fn = [&] { return SumForward(conv, input.value); };
  auto backward_fn = [&] {
    input.grad.SetZero();
    ZeroGrads(conv.Params());
    const Matrix y = conv.Forward(input.value);
    Matrix dy(y.rows(), y.cols());
    for (std::size_t i = 0; i < dy.size(); ++i) {
      dy.values()[i] = 0.3 + 0.7 * static_cast<double>(i % 5);
    }
    input.grad = conv.Backward(dy);
  };
  const auto result =
      CheckGradients({&input}, loss_fn, backward_fn);
  EXPECT_LT(result.max_rel_error, 1e-6);
}

TEST(Conv1D, RejectsKernelLargerThanInput) {
  Rng rng(11);
  EXPECT_THROW(Conv1D(1, 1, 9, 8, rng), std::invalid_argument);
}

TEST(Layers, InputWidthValidated) {
  Rng rng(12);
  Linear lin(3, 2, rng);
  EXPECT_THROW(lin.Forward(Matrix(1, 4)), std::invalid_argument);
  ReLU relu(3);
  EXPECT_THROW(relu.Forward(Matrix(1, 2)), std::invalid_argument);
}

}  // namespace
}  // namespace osap::nn
