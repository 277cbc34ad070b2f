// Equivalence tests for the transposed-operand matmul kernels and the
// runtime SIMD dispatch.
//
// The backward-pass kernels (MatMulTNInto / MatMulNTInto) and the AVX2
// variants of all matmul kernels are *speed-only* transformations: every
// output element must keep the exact scalar accumulation chain of the
// reference formulation (ascending reduction index, multiply then add, no
// FMA). These tests pin that contract bitwise, across shapes chosen to hit
// every tile path (8-wide AVX2 panels, 4-wide tiles, scalar 4x4 blocks, and
// the 1x1 edge remainders).
#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "nn/matrix.h"
#include "testing/simd_tiers.h"
#include "util/rng.h"
#include "util/simd.h"

namespace osap::nn {
namespace {

Matrix RandomMatrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.values()) v = rng.Uniform(-2.0, 2.0);
  return m;
}

void ExpectBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)));
}

struct Shape {
  std::size_t m, k, n;
};

// Shapes exercising the panel widths and remainders of every kernel:
// n/p in {1..4} hit the scalar/1x1 edges, 8/9/16/17 hit the 8-wide AVX2
// panels plus 4-wide and 1-wide remainders; 32/40 are the production
// Pensieve trunk shapes.
const Shape kShapes[] = {
    {1, 1, 1},  {1, 7, 1},   {2, 3, 2},   {3, 5, 4},    {4, 4, 8},
    {5, 3, 9},  {7, 13, 11}, {8, 16, 16}, {13, 9, 17},  {29, 6, 23},
    {6, 240, 32}, {240, 256, 32}, {240, 32, 6}, {17, 31, 40},
};

TEST(MatrixKernelTest, MatMulTNMatchesTransposedReference) {
  Rng rng(0xBEEF01);
  for (const Shape& s : kShapes) {
    // TN: a is k x m ("x"), b is k x n ("dy"); out = a^T b is m x n.
    const Matrix a = RandomMatrix(s.k, s.m, rng);
    const Matrix b = RandomMatrix(s.k, s.n, rng);
    const Matrix expected = a.Transposed().MatMul(b);
    Matrix got;
    a.MatMulTNInto(b, got);
    ExpectBitIdentical(expected, got);
  }
}

TEST(MatrixKernelTest, MatMulTNAccumulateMatchesAddInPlace) {
  Rng rng(0xBEEF02);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.k, s.m, rng);
    const Matrix b = RandomMatrix(s.k, s.n, rng);
    const Matrix seed = RandomMatrix(s.m, s.n, rng);

    Matrix expected = seed;
    expected.AddInPlace(a.Transposed().MatMul(b));

    Matrix got = seed;
    a.MatMulTNInto(b, got, /*accumulate=*/true);
    ExpectBitIdentical(expected, got);
  }
}

TEST(MatrixKernelTest, MatMulNTMatchesTransposedReference) {
  Rng rng(0xBEEF03);
  for (const Shape& s : kShapes) {
    // NT: a is m x k ("dy"), b is n x k ("W"); out = a b^T is m x n.
    const Matrix a = RandomMatrix(s.m, s.k, rng);
    const Matrix b = RandomMatrix(s.n, s.k, rng);
    const Matrix expected = a.MatMul(b.Transposed());
    Matrix got;
    a.MatMulNTInto(b, got);
    ExpectBitIdentical(expected, got);
  }
}

TEST(MatrixKernelTest, TNRejectsMismatchedRows) {
  Matrix a(3, 2);
  Matrix b(4, 2);
  Matrix out;
  EXPECT_THROW(a.MatMulTNInto(b, out), std::exception);
}

TEST(MatrixKernelTest, NTRejectsMismatchedCols) {
  Matrix a(3, 2);
  Matrix b(4, 3);
  Matrix out;
  EXPECT_THROW(a.MatMulNTInto(b, out), std::exception);
}

// Every SIMD tier must agree with the scalar path bit for bit; the
// dispatch (and the OSAP_NO_AVX2 env override that flips it) may only ever
// change speed. The matmul kernels stop at AVX2, so the AVX-512 tier runs
// them too.
class SimdDispatchTest : public ::testing::Test {
 protected:
  void TearDown() override { util::ResetSimdForTest(); }
};

TEST_F(SimdDispatchTest, ScalarAndAvx2PathsAgreeBitForBit) {
  const std::vector<util::SimdLevel> levels =
      osap::testing::AvailableSimdLevels();
  if (levels.size() == 1) GTEST_SKIP() << "CPU has no vector tier";

  Rng rng(0xBEEF04);
  for (const Shape& s : kShapes) {
    const Matrix x = RandomMatrix(s.k, s.m, rng);
    const Matrix dy = RandomMatrix(s.k, s.n, rng);
    const Matrix w = RandomMatrix(s.m, s.n, rng);
    const Matrix seed = RandomMatrix(s.m, s.n, rng);

    util::ForceSimdForTest(util::SimdLevel::kScalar);
    ASSERT_FALSE(util::UseAvx2());
    Matrix nn_s;
    x.Transposed().MatMulInto(dy, nn_s);  // plain NN product, scalar
    Matrix tn_s;
    x.MatMulTNInto(dy, tn_s);
    Matrix acc_s = seed;
    x.MatMulTNInto(dy, acc_s, /*accumulate=*/true);
    Matrix nt_s;
    dy.MatMulNTInto(w, nt_s);

    for (const util::SimdLevel level : levels) {
      if (level == util::SimdLevel::kScalar) continue;
      SCOPED_TRACE(osap::testing::SimdLevelName(level));
      util::ForceSimdForTest(level);
      ASSERT_EQ(util::ActiveSimdLevel(), level);
      ASSERT_TRUE(util::UseAvx2());
      Matrix nn_v;
      x.Transposed().MatMulInto(dy, nn_v);
      Matrix tn_v;
      x.MatMulTNInto(dy, tn_v);
      Matrix acc_v = seed;
      x.MatMulTNInto(dy, acc_v, /*accumulate=*/true);
      Matrix nt_v;
      dy.MatMulNTInto(w, nt_v);

      ExpectBitIdentical(nn_s, nn_v);
      ExpectBitIdentical(tn_s, tn_v);
      ExpectBitIdentical(acc_s, acc_v);
      ExpectBitIdentical(nt_s, nt_v);
    }
  }
}

}  // namespace
}  // namespace osap::nn
