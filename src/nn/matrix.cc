#include "nn/matrix.h"

#include <cmath>
#include <cstring>

#include "util/check.h"
#include "util/simd.h"

// The matmul kernels below come in scalar and AVX2 flavors selected at
// runtime (util::UseAvx2). Both flavors give every output element the
// exact same scalar accumulation chain - reduction strictly ascending,
// each term a multiply THEN a separate add (the target("avx2") attribute
// does not enable FMA, whose fused rounding would change results) - so
// the AVX2 path is bit-identical to the scalar path and to the naive
// triple loop.
// AVX2 always vectorizes across a NON-reduction axis: four independent
// output elements ride the four lanes while each keeps its own chain.
#if defined(__x86_64__) && defined(__GNUC__)
#define OSAP_MATRIX_SIMD 1
#endif

namespace osap::nn {

namespace {

#ifdef OSAP_MATRIX_SIMD

using V4 = double __attribute__((vector_size(32)));

/// One output row times one k panel of `b` (n columns), k unrolled by 4
/// exactly like the scalar kernel in MatMulInto; lanes are output columns
/// j..j+3, so each output element's chain is untouched.
__attribute__((target("avx2"))) void MatMulRowPanelAvx2(
    const double* a_row, const double* b, std::size_t n, std::size_t kb,
    std::size_t k_end, double* o_row) {
  std::size_t k = kb;
  for (; k + 4 <= k_end; k += 4) {
    const double a0 = a_row[k];
    const double a1 = a_row[k + 1];
    const double a2 = a_row[k + 2];
    const double a3 = a_row[k + 3];
    const double* b0 = b + k * n;
    const double* b1 = b0 + n;
    const double* b2 = b1 + n;
    const double* b3 = b2 + n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      V4 acc;
      std::memcpy(&acc, o_row + j, sizeof(V4));
      V4 v;
      std::memcpy(&v, b0 + j, sizeof(V4));
      acc = acc + v * a0;
      std::memcpy(&v, b1 + j, sizeof(V4));
      acc = acc + v * a1;
      std::memcpy(&v, b2 + j, sizeof(V4));
      acc = acc + v * a2;
      std::memcpy(&v, b3 + j, sizeof(V4));
      acc = acc + v * a3;
      std::memcpy(o_row + j, &acc, sizeof(V4));
    }
    for (; j < n; ++j) {
      double acc = o_row[j];
      acc += a0 * b0[j];
      acc += a1 * b1[j];
      acc += a2 * b2[j];
      acc += a3 * b3[j];
      o_row[j] = acc;
    }
  }
  for (; k < k_end; ++k) {
    const double a = a_row[k];
    const double* b_row = b + k * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      V4 acc;
      V4 v;
      std::memcpy(&acc, o_row + j, sizeof(V4));
      std::memcpy(&v, b_row + j, sizeof(V4));
      acc = acc + v * a;
      std::memcpy(o_row + j, &acc, sizeof(V4));
    }
    for (; j < n; ++j) o_row[j] += a * b_row[j];
  }
}

/// 4x8 block of C (+)= A^T B: two V4 lanes of B columns b..b+7, rows are
/// A columns a..a+3, reduction ascending over the r rows shared by A and
/// B. The completed sums are written (or added, when accumulating) to C
/// only at the end, so accumulate mode adds each finished product element
/// in a single addition - the AddInPlace contract.
__attribute__((target("avx2"))) void MatMulTN4x8Avx2(
    const double* a_col, std::size_t p, const double* b_col, std::size_t q,
    std::size_t n, double* c, std::size_t c_stride, bool accumulate) {
  V4 acc00{};
  V4 acc01{};
  V4 acc10{};
  V4 acc11{};
  V4 acc20{};
  V4 acc21{};
  V4 acc30{};
  V4 acc31{};
  for (std::size_t r = 0; r < n; ++r) {
    V4 b0;
    V4 b1;
    std::memcpy(&b0, b_col + r * q, sizeof(V4));
    std::memcpy(&b1, b_col + r * q + 4, sizeof(V4));
    const double* ar = a_col + r * p;
    const double a0 = ar[0];
    const double a1 = ar[1];
    const double a2 = ar[2];
    const double a3 = ar[3];
    acc00 = acc00 + b0 * a0;
    acc01 = acc01 + b1 * a0;
    acc10 = acc10 + b0 * a1;
    acc11 = acc11 + b1 * a1;
    acc20 = acc20 + b0 * a2;
    acc21 = acc21 + b1 * a2;
    acc30 = acc30 + b0 * a3;
    acc31 = acc31 + b1 * a3;
  }
  const V4 lo[4] = {acc00, acc10, acc20, acc30};
  const V4 hi[4] = {acc01, acc11, acc21, acc31};
  for (int i = 0; i < 4; ++i) {
    double* crow = c + static_cast<std::size_t>(i) * c_stride;
    if (accumulate) {
      V4 cur;
      std::memcpy(&cur, crow, sizeof(V4));
      cur = cur + lo[i];
      std::memcpy(crow, &cur, sizeof(V4));
      std::memcpy(&cur, crow + 4, sizeof(V4));
      cur = cur + hi[i];
      std::memcpy(crow + 4, &cur, sizeof(V4));
    } else {
      std::memcpy(crow, &lo[i], sizeof(V4));
      std::memcpy(crow + 4, &hi[i], sizeof(V4));
    }
  }
}

/// 4x4 edge block of C (+)= A^T B (same chains as the 4x8 kernel).
__attribute__((target("avx2"))) void MatMulTN4x4Avx2(
    const double* a_col, std::size_t p, const double* b_col, std::size_t q,
    std::size_t n, double* c, std::size_t c_stride, bool accumulate) {
  V4 acc0{};
  V4 acc1{};
  V4 acc2{};
  V4 acc3{};
  for (std::size_t r = 0; r < n; ++r) {
    V4 bv;
    std::memcpy(&bv, b_col + r * q, sizeof(V4));
    const double* ar = a_col + r * p;
    acc0 = acc0 + bv * ar[0];
    acc1 = acc1 + bv * ar[1];
    acc2 = acc2 + bv * ar[2];
    acc3 = acc3 + bv * ar[3];
  }
  const V4 accs[4] = {acc0, acc1, acc2, acc3};
  for (int i = 0; i < 4; ++i) {
    double* crow = c + static_cast<std::size_t>(i) * c_stride;
    if (accumulate) {
      V4 cur;
      std::memcpy(&cur, crow, sizeof(V4));
      cur = cur + accs[i];
      std::memcpy(crow, &cur, sizeof(V4));
    } else {
      std::memcpy(crow, &accs[i], sizeof(V4));
    }
  }
}

/// 4x8 block of C = A B^T: two V4 lanes of B rows a..a+7 (columns of C),
/// rows are A rows r..r+3, reduction ascending over the shared k columns.
__attribute__((target("avx2"))) void MatMulNT4x8Avx2(
    const double* a_rows, std::size_t a_stride, const double* b_rows,
    std::size_t b_stride, std::size_t kk, double* c, std::size_t c_stride) {
  V4 acc00{};
  V4 acc01{};
  V4 acc10{};
  V4 acc11{};
  V4 acc20{};
  V4 acc21{};
  V4 acc30{};
  V4 acc31{};
  const double* a0 = a_rows;
  const double* a1 = a_rows + a_stride;
  const double* a2 = a1 + a_stride;
  const double* a3 = a2 + a_stride;
  const double* b0 = b_rows;
  const double* b1 = b_rows + b_stride;
  const double* b2 = b1 + b_stride;
  const double* b3 = b2 + b_stride;
  const double* b4 = b3 + b_stride;
  const double* b5 = b4 + b_stride;
  const double* b6 = b5 + b_stride;
  const double* b7 = b6 + b_stride;
  for (std::size_t k = 0; k < kk; ++k) {
    const V4 w0 = {b0[k], b1[k], b2[k], b3[k]};
    const V4 w1 = {b4[k], b5[k], b6[k], b7[k]};
    const double x0 = a0[k];
    const double x1 = a1[k];
    const double x2 = a2[k];
    const double x3 = a3[k];
    acc00 = acc00 + w0 * x0;
    acc01 = acc01 + w1 * x0;
    acc10 = acc10 + w0 * x1;
    acc11 = acc11 + w1 * x1;
    acc20 = acc20 + w0 * x2;
    acc21 = acc21 + w1 * x2;
    acc30 = acc30 + w0 * x3;
    acc31 = acc31 + w1 * x3;
  }
  const V4 lo[4] = {acc00, acc10, acc20, acc30};
  const V4 hi[4] = {acc01, acc11, acc21, acc31};
  for (int i = 0; i < 4; ++i) {
    double* crow = c + static_cast<std::size_t>(i) * c_stride;
    std::memcpy(crow, &lo[i], sizeof(V4));
    std::memcpy(crow + 4, &hi[i], sizeof(V4));
  }
}

/// 4x4 edge block of C = A B^T (same chains as the 4x8 kernel).
__attribute__((target("avx2"))) void MatMulNT4x4Avx2(
    const double* a_rows, std::size_t a_stride, const double* b_rows,
    std::size_t b_stride, std::size_t kk, double* c, std::size_t c_stride) {
  V4 acc0{};
  V4 acc1{};
  V4 acc2{};
  V4 acc3{};
  const double* a0 = a_rows;
  const double* a1 = a_rows + a_stride;
  const double* a2 = a1 + a_stride;
  const double* a3 = a2 + a_stride;
  const double* b0 = b_rows;
  const double* b1 = b_rows + b_stride;
  const double* b2 = b1 + b_stride;
  const double* b3 = b2 + b_stride;
  for (std::size_t k = 0; k < kk; ++k) {
    const V4 wv = {b0[k], b1[k], b2[k], b3[k]};
    acc0 = acc0 + wv * a0[k];
    acc1 = acc1 + wv * a1[k];
    acc2 = acc2 + wv * a2[k];
    acc3 = acc3 + wv * a3[k];
  }
  const V4 accs[4] = {acc0, acc1, acc2, acc3};
  for (int i = 0; i < 4; ++i) {
    std::memcpy(c + static_cast<std::size_t>(i) * c_stride, &accs[i],
                sizeof(V4));
  }
}

#endif  // OSAP_MATRIX_SIMD

/// Scalar twin of MatMulTN4x4Avx2: identical loop structure, identical
/// per-element chains.
void MatMulTN4x4Scalar(const double* a_col, std::size_t p,
                       const double* b_col, std::size_t q, std::size_t n,
                       double* c, std::size_t c_stride, bool accumulate) {
  double acc[4][4] = {};
  for (std::size_t r = 0; r < n; ++r) {
    const double* ar = a_col + r * p;
    const double* br = b_col + r * q;
    for (int i = 0; i < 4; ++i) {
      const double av = ar[i];
      acc[i][0] += av * br[0];
      acc[i][1] += av * br[1];
      acc[i][2] += av * br[2];
      acc[i][3] += av * br[3];
    }
  }
  for (int i = 0; i < 4; ++i) {
    double* crow = c + static_cast<std::size_t>(i) * c_stride;
    if (accumulate) {
      for (int j = 0; j < 4; ++j) crow[j] += acc[i][j];
    } else {
      for (int j = 0; j < 4; ++j) crow[j] = acc[i][j];
    }
  }
}

/// Scalar twin of MatMulNT4x4Avx2.
void MatMulNT4x4Scalar(const double* a_rows, std::size_t a_stride,
                       const double* b_rows, std::size_t b_stride,
                       std::size_t kk, double* c, std::size_t c_stride) {
  double acc[4][4] = {};
  const double* as[4] = {a_rows, a_rows + a_stride, a_rows + 2 * a_stride,
                         a_rows + 3 * a_stride};
  const double* bs[4] = {b_rows, b_rows + b_stride, b_rows + 2 * b_stride,
                         b_rows + 3 * b_stride};
  for (std::size_t k = 0; k < kk; ++k) {
    for (int i = 0; i < 4; ++i) {
      const double av = as[i][k];
      acc[i][0] += av * bs[0][k];
      acc[i][1] += av * bs[1][k];
      acc[i][2] += av * bs[2][k];
      acc[i][3] += av * bs[3][k];
    }
  }
  for (int i = 0; i < 4; ++i) {
    double* crow = c + static_cast<std::size_t>(i) * c_stride;
    for (int j = 0; j < 4; ++j) crow[j] = acc[i][j];
  }
}

/// Single C element of A^T B (edge rows/columns).
void MatMulTN1x1(const double* a_col, std::size_t p, const double* b_col,
                 std::size_t q, std::size_t n, double* c, bool accumulate) {
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) acc += a_col[r * p] * b_col[r * q];
  if (accumulate) {
    *c += acc;
  } else {
    *c = acc;
  }
}

/// Single C element of A B^T (edge rows/columns); both operand rows are
/// contiguous.
void MatMulNT1x1(const double* a_row, const double* b_row, std::size_t kk,
                 double* c) {
  double acc = 0.0;
  for (std::size_t k = 0; k < kk; ++k) acc += a_row[k] * b_row[k];
  *c = acc;
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  OSAP_REQUIRE(data_.size() == rows * cols,
               "Matrix data size must equal rows*cols");
}

Matrix Matrix::RowVector(std::span<const double> values) {
  return Matrix(1, values.size(),
                std::vector<double>(values.begin(), values.end()));
}

double& Matrix::At(std::size_t r, std::size_t c) {
  OSAP_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::At(std::size_t r, std::size_t c) const {
  OSAP_CHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

std::span<const double> Matrix::Row(std::size_t r) const {
  OSAP_CHECK(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

std::span<double> Matrix::Row(std::size_t r) {
  OSAP_CHECK(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

void Matrix::ReshapeUninitialized(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

Matrix Matrix::MatMul(const Matrix& other) const {
  Matrix out;
  MatMulInto(other, out);
  return out;
}

void Matrix::MatMulInto(const Matrix& other, Matrix& out) const {
  OSAP_REQUIRE(cols_ == other.rows_, "MatMul: inner dimensions must agree");
  OSAP_CHECK_MSG(&out != this && &out != &other,
                 "MatMulInto: out must not alias an operand");
  out.ReshapeUninitialized(rows_, other.cols_);
  out.SetZero();
  const std::size_t n = other.cols_;
  // Panel-blocked i-k-j kernel. The k loop is unrolled by 4 with the output
  // element kept in a register across the four updates; the updates stay in
  // ascending-k order as four separate additions, so the accumulation order
  // (and therefore every rounded result) is identical to the naive triple
  // loop. Dense weights make a zero-skip branch pure pipeline poison, so
  // there is none. Blocking over k keeps a panel of `other` rows hot in
  // cache while it is reused across the rows of `this`.
  constexpr std::size_t kPanel = 64;
#ifdef OSAP_MATRIX_SIMD
  if (util::UseAvx2()) {
    // Same panel/unroll structure with the j loop vectorized: lanes are
    // output columns, so every element's k-ascending chain is unchanged.
    for (std::size_t kb = 0; kb < cols_; kb += kPanel) {
      const std::size_t k_end = std::min(cols_, kb + kPanel);
      for (std::size_t i = 0; i < rows_; ++i) {
        MatMulRowPanelAvx2(data_.data() + i * cols_, other.data_.data(), n,
                           kb, k_end, out.data() + i * n);
      }
    }
    return;
  }
#endif
  for (std::size_t kb = 0; kb < cols_; kb += kPanel) {
    const std::size_t k_end = std::min(cols_, kb + kPanel);
    for (std::size_t i = 0; i < rows_; ++i) {
      const double* a_row = data_.data() + i * cols_;
      double* o_row = out.data() + i * n;
      std::size_t k = kb;
      for (; k + 4 <= k_end; k += 4) {
        const double a0 = a_row[k];
        const double a1 = a_row[k + 1];
        const double a2 = a_row[k + 2];
        const double a3 = a_row[k + 3];
        const double* b0 = other.data_.data() + k * n;
        const double* b1 = b0 + n;
        const double* b2 = b1 + n;
        const double* b3 = b2 + n;
        for (std::size_t j = 0; j < n; ++j) {
          double acc = o_row[j];
          acc += a0 * b0[j];
          acc += a1 * b1[j];
          acc += a2 * b2[j];
          acc += a3 * b3[j];
          o_row[j] = acc;
        }
      }
      for (; k < k_end; ++k) {
        const double a = a_row[k];
        const double* b_row = other.data_.data() + k * n;
        for (std::size_t j = 0; j < n; ++j) {
          o_row[j] += a * b_row[j];
        }
      }
    }
  }
}

void Matrix::MatMulTNInto(const Matrix& other, Matrix& out,
                          bool accumulate) const {
  OSAP_REQUIRE(rows_ == other.rows_, "MatMulTN: row counts must agree");
  OSAP_CHECK_MSG(&out != this && &out != &other,
                 "MatMulTNInto: out must not alias an operand");
  const std::size_t p = cols_;
  const std::size_t q = other.cols_;
  const std::size_t n = rows_;
  if (accumulate) {
    OSAP_REQUIRE(out.rows_ == p && out.cols_ == q,
                 "MatMulTNInto: accumulate target shape mismatch");
  } else {
    out.ReshapeUninitialized(p, q);
  }
  const double* a = data_.data();
  const double* b = other.data_.data();
  const std::size_t p4 = p - p % 4;
  const std::size_t q4 = q - q % 4;
  // Block sizes are a scheduling choice only: every C element's chain is
  // the full ascending-r reduction regardless of which block computes it,
  // so the 8-wide AVX2 tiling and the 4-wide scalar tiling agree bit for
  // bit.
#ifdef OSAP_MATRIX_SIMD
  if (util::UseAvx2()) {
    const std::size_t q8 = q - q % 8;
    for (std::size_t i = 0; i < p4; i += 4) {
      std::size_t j = 0;
      for (; j < q8; j += 8) {
        MatMulTN4x8Avx2(a + i, p, b + j, q, n, out.data() + i * q + j, q,
                        accumulate);
      }
      for (; j < q4; j += 4) {
        MatMulTN4x4Avx2(a + i, p, b + j, q, n, out.data() + i * q + j, q,
                        accumulate);
      }
      for (; j < q; ++j) {
        for (std::size_t s = 0; s < 4; ++s) {
          MatMulTN1x1(a + i + s, p, b + j, q, n,
                      out.data() + (i + s) * q + j, accumulate);
        }
      }
    }
    for (std::size_t i = p4; i < p; ++i) {
      for (std::size_t j = 0; j < q; ++j) {
        MatMulTN1x1(a + i, p, b + j, q, n, out.data() + i * q + j,
                    accumulate);
      }
    }
    return;
  }
#endif
  for (std::size_t i = 0; i < p4; i += 4) {
    for (std::size_t j = 0; j < q4; j += 4) {
      MatMulTN4x4Scalar(a + i, p, b + j, q, n, out.data() + i * q + j, q,
                        accumulate);
    }
    for (std::size_t j = q4; j < q; ++j) {
      for (std::size_t s = 0; s < 4; ++s) {
        MatMulTN1x1(a + i + s, p, b + j, q, n, out.data() + (i + s) * q + j,
                    accumulate);
      }
    }
  }
  for (std::size_t i = p4; i < p; ++i) {
    for (std::size_t j = 0; j < q; ++j) {
      MatMulTN1x1(a + i, p, b + j, q, n, out.data() + i * q + j, accumulate);
    }
  }
}

void Matrix::MatMulNTInto(const Matrix& other, Matrix& out) const {
  OSAP_REQUIRE(cols_ == other.cols_, "MatMulNT: column counts must agree");
  OSAP_CHECK_MSG(&out != this && &out != &other,
                 "MatMulNTInto: out must not alias an operand");
  const std::size_t n = rows_;
  const std::size_t p = other.rows_;
  const std::size_t kk = cols_;
  out.ReshapeUninitialized(n, p);
  const double* a = data_.data();
  const double* b = other.data_.data();
  const std::size_t n4 = n - n % 4;
  const std::size_t p4 = p - p % 4;
#ifdef OSAP_MATRIX_SIMD
  if (util::UseAvx2()) {
    const std::size_t p8 = p - p % 8;
    for (std::size_t r = 0; r < n4; r += 4) {
      std::size_t j = 0;
      for (; j < p8; j += 8) {
        MatMulNT4x8Avx2(a + r * kk, kk, b + j * kk, kk, kk,
                        out.data() + r * p + j, p);
      }
      for (; j < p4; j += 4) {
        MatMulNT4x4Avx2(a + r * kk, kk, b + j * kk, kk, kk,
                        out.data() + r * p + j, p);
      }
      for (; j < p; ++j) {
        for (std::size_t s = 0; s < 4; ++s) {
          MatMulNT1x1(a + (r + s) * kk, b + j * kk, kk,
                      out.data() + (r + s) * p + j);
        }
      }
    }
    for (std::size_t r = n4; r < n; ++r) {
      for (std::size_t j = 0; j < p; ++j) {
        MatMulNT1x1(a + r * kk, b + j * kk, kk, out.data() + r * p + j);
      }
    }
    return;
  }
#endif
  for (std::size_t r = 0; r < n4; r += 4) {
    for (std::size_t j = 0; j < p4; j += 4) {
      MatMulNT4x4Scalar(a + r * kk, kk, b + j * kk, kk, kk,
                        out.data() + r * p + j, p);
    }
    for (std::size_t j = p4; j < p; ++j) {
      for (std::size_t s = 0; s < 4; ++s) {
        MatMulNT1x1(a + (r + s) * kk, b + j * kk, kk,
                    out.data() + (r + s) * p + j);
      }
    }
  }
  for (std::size_t r = n4; r < n; ++r) {
    for (std::size_t j = 0; j < p; ++j) {
      MatMulNT1x1(a + r * kk, b + j * kk, kk, out.data() + r * p + j);
    }
  }
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  // Tiled transpose: both the read and the write pattern stay within a
  // kTile x kTile block, so neither side strides through a whole matrix
  // column per element on large batched matrices.
  constexpr std::size_t kTile = 32;
  for (std::size_t ib = 0; ib < rows_; ib += kTile) {
    const std::size_t i_end = std::min(rows_, ib + kTile);
    for (std::size_t jb = 0; jb < cols_; jb += kTile) {
      const std::size_t j_end = std::min(cols_, jb + kTile);
      for (std::size_t i = ib; i < i_end; ++i) {
        const double* src = data_.data() + i * cols_;
        for (std::size_t j = jb; j < j_end; ++j) {
          out.data_[j * rows_ + i] = src[j];
        }
      }
    }
  }
  return out;
}

Matrix& Matrix::AddInPlace(const Matrix& other) {
  OSAP_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
               "AddInPlace: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::SubInPlace(const Matrix& other) {
  OSAP_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
               "SubInPlace: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::MulInPlace(const Matrix& other) {
  OSAP_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
               "MulInPlace: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Matrix& Matrix::Scale(double factor) {
  for (double& v : data_) v *= factor;
  return *this;
}

Matrix& Matrix::AddRowBroadcast(const Matrix& row) {
  OSAP_REQUIRE(row.rows_ == 1 && row.cols_ == cols_,
               "AddRowBroadcast: expected a 1 x cols row vector");
  for (std::size_t i = 0; i < rows_; ++i) {
    double* r = data_.data() + i * cols_;
    for (std::size_t j = 0; j < cols_; ++j) r[j] += row.data_[j];
  }
  return *this;
}

Matrix Matrix::SumRows() const {
  Matrix out(1, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* r = data_.data() + i * cols_;
    for (std::size_t j = 0; j < cols_; ++j) out.data_[j] += r[j];
  }
  return out;
}

void Matrix::SetZero() { std::fill(data_.begin(), data_.end(), 0.0); }

double Matrix::SquaredNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

Matrix Matrix::ConcatCols(std::span<const Matrix> parts) {
  OSAP_REQUIRE(!parts.empty(), "ConcatCols requires >= 1 part");
  const std::size_t rows = parts.front().rows_;
  std::size_t cols = 0;
  for (const Matrix& p : parts) {
    OSAP_REQUIRE(p.rows_ == rows, "ConcatCols: row counts must match");
    cols += p.cols_;
  }
  Matrix out(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    std::size_t offset = 0;
    for (const Matrix& p : parts) {
      const double* src = p.data_.data() + i * p.cols_;
      double* dst = out.data_.data() + i * cols + offset;
      std::copy(src, src + p.cols_, dst);
      offset += p.cols_;
    }
  }
  return out;
}

Matrix Matrix::SliceCols(std::size_t begin, std::size_t count) const {
  OSAP_REQUIRE(begin + count <= cols_, "SliceCols: out of range");
  Matrix out(rows_, count);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* src = data_.data() + i * cols_ + begin;
    std::copy(src, src + count, out.data_.data() + i * count);
  }
  return out;
}

}  // namespace osap::nn
