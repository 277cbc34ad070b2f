// Bit-identity tests for the batch-axis AVX2 DecisionValues kernel.
//
// The AVX2 path rides four samples on the four lanes of a vector register
// but keeps each sample's scalar accumulation chain (SV-ascending adds, no
// FMA, scalar std::exp per kernel term), so every batched value must be
// bit-identical to DecisionValue on the same row - across batch sizes that
// exercise the 4-wide blocking (empty, single, exact multiples, tails) and
// feature dimensions that are not multiples of any vector width. The
// ForceSimdForTest hook pins the dispatch to every tier the host runs in
// turn (the scan stops at AVX2, so the AVX-512 tier runs it too); on
// non-AVX2 hosts only the scalar tier runs and the tests degrade to
// self-consistency.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "svm/ocsvm.h"
#include "testing/simd_tiers.h"
#include "util/rng.h"
#include "util/simd.h"

namespace osap::svm {
namespace {

class OcSvmSimdTest : public ::testing::Test {
 protected:
  void TearDown() override { util::ResetSimdForTest(); }
};

/// Runs `check` once per SIMD tier the host runs, with that tier forced.
template <class Check>
void ForEachTier(Check check) {
  for (const util::SimdLevel level : osap::testing::AvailableSimdLevels()) {
    SCOPED_TRACE(osap::testing::SimdLevelName(level));
    util::ForceSimdForTest(level);
    check();
  }
}

/// Fits a small model on `dim`-dimensional clustered rows and returns it
/// together with a set of probe rows (mixing inliers and far outliers).
struct Fixture {
  OneClassSvm model;
  std::vector<double> rows;  // row-major probes
  std::size_t dim = 0;
  std::size_t count = 0;
};

Fixture MakeFixture(std::size_t dim, std::size_t probe_count,
                    std::uint64_t seed) {
  Fixture f;
  f.dim = dim;
  f.count = probe_count;
  Rng rng(seed);
  std::vector<std::vector<double>> train;
  for (std::size_t i = 0; i < 80; ++i) {
    std::vector<double> row(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      row[d] = 2.0 * static_cast<double>(d) + rng.Normal(0.0, 0.7);
    }
    train.push_back(std::move(row));
  }
  OcSvmConfig config;
  config.nu = 0.1;
  f.model = OneClassSvm(config);
  f.model.Fit(train);
  f.rows.resize(probe_count * dim);
  for (std::size_t i = 0; i < probe_count; ++i) {
    // Every third probe is far out-of-distribution so the decision values
    // span both signs and a wide range of exp() magnitudes.
    const double shift = i % 3 == 2 ? 15.0 : 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      f.rows[i * dim + d] =
          2.0 * static_cast<double>(d) + shift + rng.Normal(0.0, 0.9);
    }
  }
  return f;
}

void ExpectBatchMatchesSingles(const Fixture& f) {
  std::vector<double> batch(f.count);
  f.model.DecisionValues(f.rows.data(), f.count, batch);
  for (std::size_t i = 0; i < f.count; ++i) {
    const double single = f.model.DecisionValue(
        {f.rows.data() + i * f.dim, f.dim});
    // Bit-identical, not approximately equal: compare representations.
    std::uint64_t batch_bits = 0;
    std::uint64_t single_bits = 0;
    std::memcpy(&batch_bits, &batch[i], sizeof(batch_bits));
    std::memcpy(&single_bits, &single, sizeof(single_bits));
    EXPECT_EQ(batch_bits, single_bits) << "row " << i << ": batch " << batch[i]
                                       << " vs single " << single;
  }
}

TEST_F(OcSvmSimdTest, EmptyBatchIsANoOp) {
  const Fixture f = MakeFixture(6, 4, 11);
  std::vector<double> out;
  f.model.DecisionValues(f.rows.data(), 0, out);  // must not touch out
  EXPECT_TRUE(out.empty());
}

TEST_F(OcSvmSimdTest, SingleRowBatch) {
  // count = 1 never reaches the 4-wide kernel; pure tail path.
  ForEachTier([] { ExpectBatchMatchesSingles(MakeFixture(6, 1, 12)); });
}

TEST_F(OcSvmSimdTest, CountNotAMultipleOfSimdWidth) {
  // 4-wide blocks plus a 3-sample scalar tail.
  ForEachTier([] { ExpectBatchMatchesSingles(MakeFixture(6, 11, 13)); });
}

TEST_F(OcSvmSimdTest, CountExactMultipleOfSimdWidth) {
  ForEachTier([] { ExpectBatchMatchesSingles(MakeFixture(6, 12, 14)); });
}

TEST_F(OcSvmSimdTest, OddFeatureDimension) {
  // dim = 7: not a multiple of any vector width; the kernel vectorizes
  // across samples so dimension never needs padding.
  ForEachTier([] { ExpectBatchMatchesSingles(MakeFixture(7, 10, 15)); });
}

TEST_F(OcSvmSimdTest, PaperSyntheticDimension) {
  // 2k = 60: the U_S feature width for the synthetic datasets (k = 30).
  ForEachTier([] { ExpectBatchMatchesSingles(MakeFixture(60, 9, 16)); });
}

TEST_F(OcSvmSimdTest, ForcedScalarStillMatchesSingles) {
  // The OSAP_NO_AVX2 escape hatch routes here; DecisionValue itself is
  // scalar, so this arm must match trivially.
  util::ForceSimdForTest(util::SimdLevel::kScalar);
  ExpectBatchMatchesSingles(MakeFixture(6, 11, 17));
}

TEST_F(OcSvmSimdTest, Avx2AndScalarPathsBitIdentical) {
  // The core claim, stated directly: every dispatch tier produces the
  // scalar tier's bits for the same batch.
  const Fixture f = MakeFixture(10, 23, 18);
  std::vector<double> scalar(f.count);
  util::ForceSimdForTest(util::SimdLevel::kScalar);
  f.model.DecisionValues(f.rows.data(), f.count, scalar);
  ForEachTier([&] {
    std::vector<double> simd(f.count);
    f.model.DecisionValues(f.rows.data(), f.count, simd);
    EXPECT_EQ(0, std::memcmp(simd.data(), scalar.data(),
                             f.count * sizeof(double)));
  });
}

}  // namespace
}  // namespace osap::svm
