// Regression tests for the optimized inference kernels: the blocked MatMul
// and tiled Transposed must match a naive triple-loop reference bit for
// bit (the blocking is required to preserve the accumulation order), and
// the batched ensemble forward must match per-member Forward exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "nn/ensemble_forward.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "nn/sequential.h"
#include "testing/simd_tiers.h"
#include "util/rng.h"
#include "util/simd.h"

namespace osap::nn {
namespace {

Matrix Random(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) m.At(i, j) = rng.Normal(0.0, 1.0);
  return m;
}

/// The pre-optimization reference: i-k-j triple loop, ascending k,
/// individually rounded accumulations.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = 0; k < a.cols(); ++k)
      for (std::size_t j = 0; j < b.cols(); ++j)
        out.At(i, j) += a.At(i, k) * b.At(k, j);
  return out;
}

void ExpectBitIdentical(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.rows(); ++i)
    for (std::size_t j = 0; j < got.cols(); ++j)
      EXPECT_EQ(got.At(i, j), want.At(i, j)) << "at (" << i << "," << j << ")";
}

TEST(MatMulRegression, MatchesNaiveOnOddAndDegenerateShapes) {
  // 1xN row chains (the online decision path), Nx1 columns, shapes that are
  // not multiples of the unroll factor (4) or the panel size (64), and
  // shapes spanning multiple panels.
  const std::vector<std::array<std::size_t, 3>> shapes = {
      {1, 1, 1},   {1, 5, 1},    {1, 64, 128},  {7, 1, 9},
      {3, 5, 9},   {5, 25, 128}, {65, 130, 67}, {2, 63, 3},
      {4, 65, 4},  {1, 127, 6},
  };
  Rng rng(42);
  for (const auto& [m, k, n] : shapes) {
    const Matrix a = Random(m, k, rng);
    const Matrix b = Random(k, n, rng);
    ExpectBitIdentical(a.MatMul(b), NaiveMatMul(a, b));
  }
}

TEST(MatMulRegression, MatMulIntoReusesOutputBuffer) {
  Rng rng(7);
  const Matrix a = Random(3, 70, rng);
  const Matrix b = Random(70, 5, rng);
  Matrix out = Random(11, 13, rng);  // wrong shape, stale contents
  a.MatMulInto(b, out);
  ExpectBitIdentical(out, NaiveMatMul(a, b));
}

TEST(TransposedRegression, MatchesNaiveOnOddShapes) {
  Rng rng(3);
  for (const auto& [r, c] : std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {1, 17}, {17, 1}, {33, 65}, {64, 64}, {100, 3}}) {
    const Matrix a = Random(r, c, rng);
    const Matrix t = a.Transposed();
    ASSERT_EQ(t.rows(), c);
    ASSERT_EQ(t.cols(), r);
    for (std::size_t i = 0; i < r; ++i)
      for (std::size_t j = 0; j < c; ++j) EXPECT_EQ(t.At(j, i), a.At(i, j));
  }
}

/// A small branched net covering every packed op kind: a dense branch, a
/// Conv1D branch, a Tanh branch, and a dense trunk.
CompositeNet MakeBranchedNet(Rng& rng) {
  CompositeNet net;
  Sequential dense;
  dense.Add(std::make_unique<Linear>(1, 4, rng));
  dense.Add(std::make_unique<ReLU>(4));
  net.AddBranch(0, 1, std::move(dense));
  Sequential conv;
  conv.Add(std::make_unique<Conv1D>(1, 2, 3, 8, rng));
  conv.Add(std::make_unique<ReLU>(12));
  net.AddBranch(1, 8, std::move(conv));
  Sequential tanh_branch;
  tanh_branch.Add(std::make_unique<Linear>(2, 3, rng));
  tanh_branch.Add(std::make_unique<Tanh>(3));
  net.AddBranch(9, 2, std::move(tanh_branch));
  Sequential trunk;
  trunk.Add(std::make_unique<Linear>(19, 5, rng));
  trunk.Add(std::make_unique<Tanh>(5));
  net.SetTrunk(std::move(trunk));
  return net;
}

TEST(BatchedEnsembleRegression, MatchesPerMemberForwardBitForBit) {
  Rng rng(11);
  std::vector<CompositeNet> members;
  for (int m = 0; m < 3; ++m) members.push_back(MakeBranchedNet(rng));
  std::vector<const CompositeNet*> views;
  for (const auto& m : members) views.push_back(&m);
  const BatchedEnsemble batched(views);
  EXPECT_EQ(batched.MemberCount(), 3u);
  EXPECT_EQ(batched.InputSize(), 11u);
  EXPECT_EQ(batched.OutputSize(), 5u);

  InferScratch scratch;
  for (int trial = 0; trial < 10; ++trial) {
    const Matrix x = Random(1, 11, rng);
    const Matrix& out = batched.InferBatch(x, scratch);
    ASSERT_EQ(out.rows(), 3u);
    ASSERT_EQ(out.cols(), 5u);
    for (std::size_t m = 0; m < members.size(); ++m) {
      const Matrix ref = members[m].Forward(x);
      for (std::size_t j = 0; j < 5; ++j) {
        EXPECT_EQ(out.At(m, j), ref.At(0, j))
            << "member " << m << " output " << j;
      }
    }
  }
}

TEST(BatchedEnsembleRegression, InferBatchMatchesPerStateInferBitForBit) {
  Rng rng(23);
  std::vector<CompositeNet> members;
  for (int m = 0; m < 3; ++m) members.push_back(MakeBranchedNet(rng));
  std::vector<const CompositeNet*> views;
  for (const auto& m : members) views.push_back(&m);
  const BatchedEnsemble batched(views);

  // Batch sizes around the edge cases: one state, odd counts, and rows
  // wider than InputSize (extra columns must be ignored).
  for (const std::size_t batch : {std::size_t{1}, std::size_t{2},
                                  std::size_t{7}, std::size_t{33}}) {
    Matrix states = Random(batch, 13, rng);  // 13 > InputSize() == 11
    InferScratch scratch;
    const Matrix& out = batched.InferBatch(states, scratch);
    ASSERT_EQ(out.rows(), batch * 3u);
    ASSERT_EQ(out.cols(), 5u);
    for (std::size_t b = 0; b < batch; ++b) {
      Matrix x(1, batched.InputSize());
      std::copy_n(states.Row(b).begin(), x.cols(), x.data());
      for (std::size_t m = 0; m < 3; ++m) {
        const Matrix ref = members[m].Forward(x);
        for (std::size_t j = 0; j < 5; ++j) {
          EXPECT_EQ(out.At(b * 3 + m, j), ref.At(0, j))
              << "state " << b << " member " << m << " output " << j;
        }
      }
    }
  }
}

TEST(BatchedEnsembleRegression, CompositeInferMatchesForward) {
  Rng rng(5);
  CompositeNet net = MakeBranchedNet(rng);
  InferScratch scratch;
  for (int trial = 0; trial < 5; ++trial) {
    Matrix x = Random(1, 11, rng);
    const Matrix& inferred = net.Infer(x, scratch);
    ExpectBitIdentical(inferred, net.Forward(x));
  }
}

TEST(BatchedEnsembleRegression, RejectsEmptyAndNullMembers) {
  EXPECT_THROW(BatchedEnsemble({}), std::invalid_argument);
  EXPECT_THROW(BatchedEnsemble(std::vector<const CompositeNet*>{nullptr}),
               std::invalid_argument);
}

TEST(BatchedEnsembleRegression, RejectsMismatchedTopology) {
  Rng rng(9);
  CompositeNet a = MakeBranchedNet(rng);
  CompositeNet b;  // different topology: single dense branch
  Sequential dense;
  dense.Add(std::make_unique<Linear>(11, 5, rng));
  b.AddBranch(0, 11, std::move(dense));
  Sequential trunk;
  trunk.Add(std::make_unique<Linear>(5, 5, rng));
  b.SetTrunk(std::move(trunk));
  EXPECT_THROW(BatchedEnsemble(std::vector<const CompositeNet*>{&a, &b}),
               std::invalid_argument);
}

/// Replaces every weight and bias with a random draw. Freshly constructed
/// layers have zero biases, under which a kernel that adds the bias at the
/// wrong point of an element's chain would still produce the same bits.
void RandomizeParams(CompositeNet& net, Rng& rng) {
  for (Param* p : net.Params()) {
    for (double& v : p->value.values()) v = rng.Normal(0.0, 0.5);
  }
}

/// A Pensieve-shaped member (BuildPensieveNet's default config: 16 conv
/// filters, kernel 4, 32 hidden units, over the 8-chunk history and
/// 6-level ladder): three 1->16 dense branches, three 16-channel Conv1D
/// branches, and a 256->32 trunk into `outputs` head units - 6 for the
/// actor, 1 for a value member. The trunk fills one 32-column Linear
/// tile and every conv fills one 16-channel tile.
CompositeNet MakePensieveShapedNet(std::size_t outputs, Rng& rng) {
  CompositeNet net;
  const auto dense = [&](std::size_t begin) {
    Sequential seq;
    seq.AddLinearReLU(1, 16, rng);
    net.AddBranch(begin, 1, std::move(seq));
  };
  const auto conv = [&](std::size_t begin, std::size_t length) {
    Sequential seq;
    seq.Add(std::make_unique<Conv1D>(1, 16, 4, length, rng));
    seq.Add(std::make_unique<ReLU>(16 * (length - 3)));
    net.AddBranch(begin, length, std::move(seq));
  };
  dense(0);
  dense(1);
  conv(2, 8);
  conv(10, 8);
  conv(18, 6);
  dense(24);
  Sequential trunk;
  trunk.AddLinearReLU(16 * (3 + 5 + 5 + 3), 32, rng);
  trunk.Add(std::make_unique<Linear>(32, outputs, rng));
  net.SetTrunk(std::move(trunk));
  RandomizeParams(net, rng);
  return net;
}

/// Shapes that reach every tail of the single-state kernels: Conv1D with
/// 2 input channels and 17 (a 16-channel tile + 1), 35 (two tiles + 3)
/// and 7 (no tile) output channels, one of them with output length 1;
/// Linear with 37 outputs (a 32-column tile + 5) and with 5 outputs (no
/// tile), with and without a fused ReLU.
CompositeNet MakeOddShapedNet(Rng& rng) {
  CompositeNet net;
  Sequential narrow;
  narrow.Add(std::make_unique<Conv1D>(2, 17, 3, 3, rng));  // length 1
  narrow.Add(std::make_unique<ReLU>(17));
  net.AddBranch(0, 6, std::move(narrow));
  Sequential wide;
  wide.Add(std::make_unique<Conv1D>(2, 35, 3, 5, rng));  // 35 x 3
  wide.Add(std::make_unique<ReLU>(105));
  wide.Add(std::make_unique<Conv1D>(35, 7, 2, 3, rng));  // 7 x 2, no ReLU
  net.AddBranch(6, 10, std::move(wide));
  Sequential trunk;
  trunk.AddLinearReLU(17 + 14, 37, rng);
  trunk.Add(std::make_unique<Linear>(37, 5, rng));
  net.SetTrunk(std::move(trunk));
  RandomizeParams(net, rng);
  return net;
}

/// Output widths around the 8-lane tier's masked tails: Linear layers 9
/// (one vector + 1), 35 (a 32-column tile + 3), 41 (a tile + one vector
/// + 1), 17 (two vectors + 1), 7 and 6 (a lone masked vector), and Conv1D
/// layers with 6 and 41 (two 16-channel tiles + one vector + 1) output
/// channels. No weight block is a multiple of 8 doubles (27, 36, 82,
/// 3815, ...), so every member's slab carries padding.
CompositeNet MakeMaskedTailNet(Rng& rng) {
  CompositeNet net;
  Sequential dense;
  dense.AddLinearReLU(3, 9, rng);
  net.AddBranch(0, 3, std::move(dense));
  Sequential narrow;
  narrow.Add(std::make_unique<Conv1D>(2, 6, 3, 5, rng));  // 6 x 3
  narrow.Add(std::make_unique<ReLU>(18));
  net.AddBranch(3, 10, std::move(narrow));
  Sequential wide;
  wide.Add(std::make_unique<Conv1D>(1, 41, 2, 3, rng));  // 41 x 2, no ReLU
  net.AddBranch(13, 3, std::move(wide));
  Sequential trunk;
  trunk.AddLinearReLU(9 + 18 + 82, 35, rng);
  trunk.AddLinearReLU(35, 41, rng);
  trunk.Add(std::make_unique<Linear>(41, 17, rng));
  trunk.Add(std::make_unique<Tanh>(17));
  trunk.AddLinearReLU(17, 7, rng);
  trunk.Add(std::make_unique<Linear>(7, 6, rng));
  net.SetTrunk(std::move(trunk));
  RandomizeParams(net, rng);
  return net;
}

/// InferBatch must equal each member's own Forward bit for bit, on every
/// SIMD tier the host runs, at batch sizes from one state to past the
/// old batch-of-4 groupings (4, 8 and 9).
void ExpectFusedMatchesMemberForward(std::vector<CompositeNet>& members,
                                     Rng& rng) {
  std::vector<const CompositeNet*> views;
  for (const auto& m : members) views.push_back(&m);
  const BatchedEnsemble batched(views);
  const std::size_t k = members.size();
  const std::size_t outputs = batched.OutputSize();
  for (const util::SimdLevel level : osap::testing::AvailableSimdLevels()) {
    const char* tier = osap::testing::SimdLevelName(level);
    util::ForceSimdForTest(level);
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
          std::size_t{5}, std::size_t{8}, std::size_t{9}}) {
      const Matrix states = Random(batch, batched.InputSize(), rng);
      InferScratch scratch;
      const Matrix& fused = batched.InferBatch(states, scratch);
      ASSERT_EQ(fused.rows(), batch * k);
      for (std::size_t b = 0; b < batch; ++b) {
        Matrix x(1, states.cols());
        std::copy(states.Row(b).begin(), states.Row(b).end(), x.data());
        for (std::size_t m = 0; m < k; ++m) {
          const Matrix ref = members[m].Forward(x);
          for (std::size_t j = 0; j < outputs; ++j) {
            EXPECT_EQ(fused.At(b * k + m, j), ref.At(0, j))
                << tier << " batch " << batch << " state " << b
                << " member " << m << " output " << j;
          }
        }
      }
    }
  }
}

class BatchedEnsembleTiledShapes : public ::testing::Test {
 protected:
  void TearDown() override { util::ResetSimdForTest(); }
};

TEST_F(BatchedEnsembleTiledShapes, PensieveActorMembersMatchForward) {
  Rng rng(31);
  std::vector<CompositeNet> members;
  for (int m = 0; m < 5; ++m) members.push_back(MakePensieveShapedNet(6, rng));
  ExpectFusedMatchesMemberForward(members, rng);
}

TEST_F(BatchedEnsembleTiledShapes, PensieveValueMembersMatchForward) {
  Rng rng(37);
  std::vector<CompositeNet> members;
  for (int m = 0; m < 5; ++m) members.push_back(MakePensieveShapedNet(1, rng));
  ExpectFusedMatchesMemberForward(members, rng);
}

TEST_F(BatchedEnsembleTiledShapes, OddShapesMatchForward) {
  Rng rng(41);
  std::vector<CompositeNet> members;
  for (int m = 0; m < 3; ++m) members.push_back(MakeOddShapedNet(rng));
  ExpectFusedMatchesMemberForward(members, rng);
}

TEST_F(BatchedEnsembleTiledShapes, MaskedTailWidthsMatchForward) {
  Rng rng(43);
  std::vector<CompositeNet> members;
  for (int m = 0; m < 3; ++m) members.push_back(MakeMaskedTailNet(rng));
  ExpectFusedMatchesMemberForward(members, rng);
}

/// Every ReLU the packed kernels run - fused after a tiled Linear (a
/// 32-column tile and a 5-column tail) and after a Conv1D (a 16-channel
/// tile and a tail), and standalone - passes NaN through on every tier.
/// With every weight and bias 2, a state alternating +-DBL_MAX makes each
/// first-layer sum inf - inf = NaN; were a ReLU to map it to 0, the
/// trunk would output its finite bias. A finite state in the same batch
/// stays finite, and each member's own inference pass (CompositeNet::
/// Infer, the one the sequential SafeAgent's policy runs) agrees.
TEST_F(BatchedEnsembleTiledShapes, NanActivationsPropagateThroughEveryRelu) {
  Rng rng(53);
  std::vector<CompositeNet> members(2);
  for (CompositeNet& net : members) {
    Sequential dense;
    dense.AddLinearReLU(2, 37, rng);
    dense.Add(std::make_unique<ReLU>(37));
    net.AddBranch(0, 2, std::move(dense));
    Sequential conv;
    conv.Add(std::make_unique<Conv1D>(1, 17, 2, 6, rng));  // 17 x 5
    conv.Add(std::make_unique<ReLU>(85));
    net.AddBranch(2, 6, std::move(conv));
    Sequential trunk;
    trunk.Add(std::make_unique<Linear>(37 + 85, 3, rng));
    net.SetTrunk(std::move(trunk));
    for (Param* p : net.Params()) {
      std::fill(p->value.values().begin(), p->value.values().end(), 2.0);
    }
  }
  std::vector<const CompositeNet*> views;
  for (const auto& m : members) views.push_back(&m);
  const BatchedEnsemble batched(views);

  constexpr double kMax = std::numeric_limits<double>::max();
  Matrix states(2, batched.InputSize());
  for (std::size_t j = 0; j < states.cols(); ++j) {
    states.At(0, j) = j % 2 == 0 ? kMax : -kMax;
    states.At(1, j) = 0.5;
  }
  Matrix extreme(1, states.cols());
  std::copy(states.Row(0).begin(), states.Row(0).end(), extreme.data());
  for (const CompositeNet& member : members) {
    InferScratch scratch;
    for (const double v : member.Infer(extreme, scratch).values()) {
      EXPECT_TRUE(std::isnan(v)) << "CompositeNet::Infer read " << v;
    }
  }
  for (const util::SimdLevel level : osap::testing::AvailableSimdLevels()) {
    const char* tier = osap::testing::SimdLevelName(level);
    util::ForceSimdForTest(level);
    InferScratch scratch;
    const Matrix& out = batched.InferBatch(states, scratch);
    for (std::size_t m = 0; m < members.size(); ++m) {
      for (std::size_t j = 0; j < out.cols(); ++j) {
        EXPECT_TRUE(std::isnan(out.At(m, j)))
            << tier << " member " << m << " output " << j << " read "
            << out.At(m, j);
        EXPECT_TRUE(std::isfinite(out.At(members.size() + m, j)))
            << tier << " finite state, member " << m << " output " << j;
      }
    }
  }
}

/// The single-state kernels read each packed row as whole cache lines
/// only if every member's weight and bias block starts on one; storage
/// without that guarantee (a plain Matrix, say) must fail here, not just
/// run slower. The blocks must also hold the members' own values.
TEST(BatchedEnsemblePacking, EveryBlockStartsOnACacheLine) {
  Rng rng(47);
  std::vector<CompositeNet> members;
  for (int m = 0; m < 3; ++m) members.push_back(MakeMaskedTailNet(rng));
  std::vector<const CompositeNet*> views;
  for (const auto& m : members) views.push_back(&m);
  const BatchedEnsemble batched(views);

  // Per member, the Linear/Conv1D params in packing order (branches,
  // then the trunk), weight before bias - the order PackedBlocks uses.
  std::vector<std::vector<Param*>> params;
  for (CompositeNet& member : members) params.push_back(member.Params());
  const std::size_t per_member = params.front().size();
  ASSERT_EQ(per_member % 2, 0u);
  const std::vector<std::span<const double>> blocks = batched.PackedBlocks();
  ASSERT_EQ(blocks.size(), per_member * members.size());

  bool saw_unpadded_size = false;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    // Blocks run op by op, and within an op member by member.
    const std::size_t op = i / (2 * members.size());
    const std::size_t m = (i / 2) % members.size();
    const Param& param = *params[m][2 * op + i % 2];
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(blocks[i].data()) % 64, 0u)
        << "block " << i << " (op " << op << ", member " << m << ")";
    ASSERT_EQ(blocks[i].size(), param.value.size()) << "block " << i;
    EXPECT_TRUE(std::equal(blocks[i].begin(), blocks[i].end(),
                           param.value.values().begin()))
        << "block " << i;
    saw_unpadded_size |= blocks[i].size() % 8 != 0;
  }
  EXPECT_TRUE(saw_unpadded_size);
}

// Runs for real only in the nn_tests_no_avx2 ctest entry, which reruns the
// BatchedEnsemble and SIMD suites in a process started with OSAP_NO_AVX2=1.
// The variable disables every vector tier, AVX-512 included.
TEST(SimdEnvironment, NoAvx2SelectsScalarPath) {
  const char* env = std::getenv("OSAP_NO_AVX2");
  if (env == nullptr || std::strcmp(env, "1") != 0) {
    GTEST_SKIP() << "needs OSAP_NO_AVX2=1 in the environment";
  }
  EXPECT_FALSE(util::UseAvx2());
  EXPECT_EQ(util::ActiveSimdLevel(), util::SimdLevel::kScalar);
}

}  // namespace
}  // namespace osap::nn
