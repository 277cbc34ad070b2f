#include "nn/layers.h"

#include <cmath>
#include <utility>

#include "util/check.h"

namespace osap::nn {

namespace {

/// Xavier/Glorot uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out)).
Matrix XavierUniform(std::size_t rows, std::size_t cols, std::size_t fan_in,
                     std::size_t fan_out, Rng& rng) {
  const double a =
      std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  Matrix m(rows, cols);
  for (double& v : m.values()) v = rng.Uniform(-a, a);
  return m;
}

}  // namespace

Linear::Linear(std::size_t in, std::size_t out, Rng& rng)
    : weight_(XavierUniform(in, out, in, out, rng)),
      bias_(Matrix(1, out)) {
  OSAP_REQUIRE(in > 0 && out > 0, "Linear dimensions must be positive");
}

Matrix Linear::Forward(const Matrix& x) {
  OSAP_REQUIRE(x.cols() == InputSize(), "Linear: input width mismatch");
  cached_input_ = x;
  Matrix y = cached_input_.MatMul(weight_.value);
  y.AddRowBroadcast(bias_.value);
  return y;
}

Matrix Linear::Forward(Matrix&& x) {
  OSAP_REQUIRE(x.cols() == InputSize(), "Linear: input width mismatch");
  cached_input_ = std::move(x);
  Matrix y = cached_input_.MatMul(weight_.value);
  y.AddRowBroadcast(bias_.value);
  return y;
}

void Linear::InferBatch(const Matrix& x, Matrix& y) const {
  OSAP_REQUIRE(x.cols() == InputSize(), "Linear: input width mismatch");
  x.MatMulInto(weight_.value, y);
  y.AddRowBroadcast(bias_.value);
}

Matrix Linear::Backward(const Matrix& dy) {
  OSAP_REQUIRE(dy.cols() == OutputSize(), "Linear: grad width mismatch");
  OSAP_CHECK_MSG(dy.rows() == cached_input_.rows(),
                 "Linear: Backward batch must match last Forward batch");
  // Transposed-operand kernels: dW = x^T dy accumulated straight into the
  // gradient and dx = dy W^T, with no materialized Transposed() copies.
  // Bit-identical to the AddInPlace(Transposed().MatMul(...)) formulation
  // (pinned by nn_tests kernel-equivalence and gradcheck suites).
  cached_input_.MatMulTNInto(dy, weight_.grad, /*accumulate=*/true);
  bias_.grad.AddInPlace(dy.SumRows());
  Matrix dx;
  dy.MatMulNTInto(weight_.value, dx);
  return dx;
}

void ReLU::MaskAndClamp(std::vector<double>& v) {
  zeroed_.resize(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double x = v[i];
    // zeroed_ records the exact Backward predicate (x <= 0.0); the clamp
    // below is the exact Forward expression. Both match the previous
    // cached-input formulation bit for bit (including -0.0 and NaN inputs,
    // which the predicates classify independently, as before).
    zeroed_[i] = x <= 0.0 ? 1 : 0;
    v[i] = x > 0.0 ? x : 0.0;
  }
}

Matrix ReLU::Forward(const Matrix& x) {
  OSAP_REQUIRE(x.cols() == size_, "ReLU: input width mismatch");
  cached_rows_ = x.rows();
  cached_cols_ = x.cols();
  Matrix y = x;
  MaskAndClamp(y.values());
  return y;
}

Matrix ReLU::Forward(Matrix&& x) {
  OSAP_REQUIRE(x.cols() == size_, "ReLU: input width mismatch");
  cached_rows_ = x.rows();
  cached_cols_ = x.cols();
  Matrix y = std::move(x);
  MaskAndClamp(y.values());
  return y;
}

void ReLU::InferBatch(const Matrix& x, Matrix& y) const {
  OSAP_REQUIRE(x.cols() == size_, "ReLU: input width mismatch");
  y.ReshapeUninitialized(x.rows(), x.cols());
  const double* in = x.data();
  double* out = y.data();
  // NaN passes through, as in the packed ensemble kernels: inference
  // must not turn an overflowed activation into a finite one.
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = in[i] <= 0.0 ? 0.0 : in[i];
  }
}

Matrix ReLU::Backward(const Matrix& dy) {
  Matrix dx = dy;
  return Backward(std::move(dx));
}

Matrix ReLU::Backward(Matrix&& dy) {
  OSAP_CHECK_MSG(dy.rows() == cached_rows_ && dy.cols() == cached_cols_,
                 "ReLU: Backward shape must match last Forward");
  Matrix dx = std::move(dy);
  auto& g = dx.values();
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (zeroed_[i]) g[i] = 0.0;
  }
  return dx;
}

Matrix Tanh::Forward(const Matrix& x) {
  OSAP_REQUIRE(x.cols() == size_, "Tanh: input width mismatch");
  Matrix y = x;
  for (double& v : y.values()) v = std::tanh(v);
  cached_output_ = y;
  return y;
}

Matrix Tanh::Forward(Matrix&& x) {
  OSAP_REQUIRE(x.cols() == size_, "Tanh: input width mismatch");
  Matrix y = std::move(x);
  for (double& v : y.values()) v = std::tanh(v);
  cached_output_ = y;
  return y;
}

void Tanh::InferBatch(const Matrix& x, Matrix& y) const {
  OSAP_REQUIRE(x.cols() == size_, "Tanh: input width mismatch");
  y.ReshapeUninitialized(x.rows(), x.cols());
  const double* in = x.data();
  double* out = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = std::tanh(in[i]);
  }
}

Matrix Tanh::Backward(const Matrix& dy) {
  Matrix dx = dy;
  return Backward(std::move(dx));
}

Matrix Tanh::Backward(Matrix&& dy) {
  OSAP_CHECK_MSG(dy.rows() == cached_output_.rows() &&
                     dy.cols() == cached_output_.cols(),
                 "Tanh: Backward shape must match last Forward");
  Matrix dx = std::move(dy);
  const auto& y = cached_output_.values();
  auto& g = dx.values();
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] *= 1.0 - y[i] * y[i];
  }
  return dx;
}

Conv1D::Conv1D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t input_length, Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      input_length_(input_length),
      weight_(XavierUniform(in_channels * kernel, out_channels,
                            in_channels * kernel, out_channels, rng)),
      bias_(Matrix(1, out_channels)) {
  OSAP_REQUIRE(in_channels > 0 && out_channels > 0, "Conv1D channels > 0");
  OSAP_REQUIRE(kernel > 0 && kernel <= input_length,
               "Conv1D kernel must be in [1, input_length]");
}

Matrix Conv1D::Forward(const Matrix& x) {
  cached_input_ = x;
  // InferBatch writes every output element with the identical accumulation
  // chain, so delegating keeps Forward/InferBatch bit-identical by
  // construction.
  Matrix y;
  InferBatch(cached_input_, y);
  return y;
}

Matrix Conv1D::Forward(Matrix&& x) {
  cached_input_ = std::move(x);
  Matrix y;
  InferBatch(cached_input_, y);
  return y;
}

void Conv1D::InferBatch(const Matrix& x, Matrix& y) const {
  OSAP_REQUIRE(x.cols() == InputSize(), "Conv1D: input width mismatch");
  const std::size_t out_len = OutputLength();
  y.ReshapeUninitialized(x.rows(), OutputSize());
  const double* w = weight_.value.data();
  const double* bias = bias_.value.data();
  const std::size_t w_cols = weight_.value.cols();
  for (std::size_t n = 0; n < x.rows(); ++n) {
    const double* xin = x.data() + n * x.cols();
    double* yout = y.data() + n * y.cols();
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      const double b = bias[oc];
      for (std::size_t t = 0; t < out_len; ++t) {
        double acc = b;
        for (std::size_t ic = 0; ic < in_channels_; ++ic) {
          const double* xc = xin + ic * input_length_ + t;
          for (std::size_t k = 0; k < kernel_; ++k) {
            acc += xc[k] * w[(ic * kernel_ + k) * w_cols + oc];
          }
        }
        yout[oc * out_len + t] = acc;
      }
    }
  }
}

Matrix Conv1D::Backward(const Matrix& dy) {
  OSAP_REQUIRE(dy.cols() == OutputSize(), "Conv1D: grad width mismatch");
  OSAP_CHECK_MSG(dy.rows() == cached_input_.rows(),
                 "Conv1D: Backward batch must match last Forward batch");
  const std::size_t out_len = OutputLength();
  Matrix dx(cached_input_.rows(), cached_input_.cols());
  // Same (n, oc, t, ic, k) loop nest and zero-gradient skip as before,
  // with the bounds-checked At() accessors hoisted to raw pointers (the
  // checks cost more than the MACs in this inner loop).
  const double* w = weight_.value.data();
  double* wg = weight_.grad.data();
  double* bg = bias_.grad.data();
  const std::size_t w_cols = weight_.value.cols();
  for (std::size_t n = 0; n < dy.rows(); ++n) {
    const double* xin = cached_input_.data() + n * cached_input_.cols();
    const double* dout = dy.data() + n * dy.cols();
    double* din = dx.data() + n * dx.cols();
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      for (std::size_t t = 0; t < out_len; ++t) {
        const double g = dout[oc * out_len + t];
        if (g == 0.0) continue;
        bg[oc] += g;
        for (std::size_t ic = 0; ic < in_channels_; ++ic) {
          const double* xc = xin + ic * input_length_ + t;
          double* dc = din + ic * input_length_ + t;
          for (std::size_t k = 0; k < kernel_; ++k) {
            wg[(ic * kernel_ + k) * w_cols + oc] += g * xc[k];
            dc[k] += g * w[(ic * kernel_ + k) * w_cols + oc];
          }
        }
      }
    }
  }
  return dx;
}

}  // namespace osap::nn
