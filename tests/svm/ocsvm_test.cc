#include "svm/ocsvm.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "util/rng.h"

namespace osap::svm {
namespace {

/// Gaussian blob around a center.
std::vector<std::vector<double>> MakeBlob(double cx, double cy, double sd,
                                          std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> data;
  data.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    data.push_back({rng.Normal(cx, sd), rng.Normal(cy, sd)});
  }
  return data;
}

TEST(OneClassSvm, AcceptsInDistributionRejectsFarOutliers) {
  OcSvmConfig cfg;
  cfg.nu = 0.05;
  OneClassSvm model(cfg);
  model.Fit(MakeBlob(0.0, 0.0, 1.0, 400, 1));

  // Fresh samples from the same blob are mostly inliers.
  const auto test_in = MakeBlob(0.0, 0.0, 1.0, 200, 2);
  EXPECT_GT(model.InlierFraction(test_in), 0.85);

  // A far-away blob is almost entirely outliers.
  const auto test_out = MakeBlob(10.0, 10.0, 1.0, 200, 3);
  EXPECT_LT(model.InlierFraction(test_out), 0.05);
}

TEST(OneClassSvm, NuPropertyBoundsTrainingOutliers) {
  // The fraction of training points classified as outliers is ~<= nu
  // (up to SMO tolerance slack).
  for (double nu : {0.05, 0.1, 0.2}) {
    OcSvmConfig cfg;
    cfg.nu = nu;
    OneClassSvm model(cfg);
    const auto train = MakeBlob(0.0, 0.0, 1.0, 300, 7);
    model.Fit(train);
    const double outlier_fraction = 1.0 - model.InlierFraction(train);
    EXPECT_LE(outlier_fraction, nu + 0.05) << "nu=" << nu;
  }
}

TEST(OneClassSvm, HigherNuRejectsMore) {
  const auto train = MakeBlob(0.0, 0.0, 1.0, 300, 11);
  OcSvmConfig lo_cfg;
  lo_cfg.nu = 0.02;
  OneClassSvm lo(lo_cfg);
  lo.Fit(train);
  OcSvmConfig hi_cfg;
  hi_cfg.nu = 0.4;
  OneClassSvm hi(hi_cfg);
  hi.Fit(train);
  EXPECT_GT(lo.InlierFraction(train), hi.InlierFraction(train));
}

TEST(OneClassSvm, SupportVectorFractionAtLeastNu) {
  OcSvmConfig cfg;
  cfg.nu = 0.3;
  OneClassSvm model(cfg);
  const auto train = MakeBlob(0.0, 0.0, 1.0, 200, 13);
  model.Fit(train);
  EXPECT_GE(static_cast<double>(model.SupportVectorCount()) /
                static_cast<double>(train.size()),
            0.3 - 0.05);
}

TEST(OneClassSvm, DecisionValueDecreasesAwayFromData) {
  OcSvmConfig cfg;
  OneClassSvm model(cfg);
  model.Fit(MakeBlob(0.0, 0.0, 1.0, 300, 17));
  const double near = model.DecisionValue(std::vector<double>{0.0, 0.0});
  const double mid = model.DecisionValue(std::vector<double>{3.0, 0.0});
  const double far = model.DecisionValue(std::vector<double>{8.0, 0.0});
  EXPECT_GT(near, mid);
  EXPECT_GT(mid, far);
}

TEST(OneClassSvm, DeterministicAcrossFits) {
  const auto train = MakeBlob(1.0, -1.0, 0.5, 200, 19);
  OneClassSvm a;
  a.Fit(train);
  OneClassSvm b;
  b.Fit(train);
  const std::vector<double> probe = {1.5, -0.5};
  EXPECT_DOUBLE_EQ(a.DecisionValue(probe), b.DecisionValue(probe));
  EXPECT_EQ(a.SupportVectorCount(), b.SupportVectorCount());
}

TEST(OneClassSvm, SubsamplingCapsKernelMatrix) {
  OcSvmConfig cfg;
  cfg.max_samples = 100;
  OneClassSvm model(cfg);
  model.Fit(MakeBlob(0.0, 0.0, 1.0, 1000, 23));
  EXPECT_LE(model.SupportVectorCount(), 100u);
  // Still a sane detector.
  EXPECT_LT(model.InlierFraction(MakeBlob(10.0, 10.0, 0.5, 100, 29)), 0.1);
}

TEST(OneClassSvm, ScoreBeforeFitThrows) {
  OneClassSvm model;
  EXPECT_THROW(model.DecisionValue(std::vector<double>{0.0}),
               std::invalid_argument);
}

TEST(OneClassSvm, RejectsInvalidNu) {
  OcSvmConfig cfg;
  cfg.nu = 0.0;
  OneClassSvm zero(cfg);
  EXPECT_THROW(zero.Fit(MakeBlob(0, 0, 1, 10, 1)), std::invalid_argument);
  cfg.nu = 1.0;
  OneClassSvm one(cfg);
  EXPECT_THROW(one.Fit(MakeBlob(0, 0, 1, 10, 1)), std::invalid_argument);
}

TEST(OneClassSvm, RejectsRaggedData) {
  OneClassSvm model;
  std::vector<std::vector<double>> data = {{1.0, 2.0}, {3.0}};
  EXPECT_THROW(model.Fit(data), std::invalid_argument);
}

TEST(OneClassSvm, SaveLoadRoundTripPreservesDecisions) {
  const auto dir =
      std::filesystem::temp_directory_path() / "osap_svm_test";
  std::filesystem::create_directories(dir);
  const auto path = dir / "model.bin";

  OneClassSvm model;
  model.Fit(MakeBlob(0.0, 0.0, 1.0, 200, 31));
  model.Save(path);
  const OneClassSvm loaded = OneClassSvm::Load(path);

  Rng rng(37);
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> probe = {rng.Uniform(-5, 5),
                                       rng.Uniform(-5, 5)};
    EXPECT_DOUBLE_EQ(model.DecisionValue(probe),
                     loaded.DecisionValue(probe));
  }
  std::filesystem::remove_all(dir);
}

TEST(OneClassSvm, LoadReproducesFittedDecisionsBitForBit) {
  // Ten dimensions, the U_S feature width at the paper's k = 5: the
  // loaded squared norms must sum in Fit's order for every bit to match.
  const auto dir =
      std::filesystem::temp_directory_path() / "osap_svm_bits_test";
  std::filesystem::create_directories(dir);
  const auto path = dir / "model.bin";
  Rng rng(41);
  std::vector<std::vector<double>> data(300, std::vector<double>(10));
  for (auto& row : data) {
    for (double& x : row) x = rng.Normal(1.0, 0.7);
  }
  OneClassSvm model;
  model.Fit(data);
  model.Save(path);
  const OneClassSvm loaded = OneClassSvm::Load(path);
  std::vector<double> probes(64 * 10);
  for (double& x : probes) x = rng.Uniform(-2.0, 4.0);
  std::vector<double> want(64), got(64);
  model.DecisionValues(probes.data(), 64, want);
  loaded.DecisionValues(probes.data(), 64, got);
  EXPECT_EQ(std::memcmp(want.data(), got.data(), 64 * sizeof(double)), 0);
  std::filesystem::remove_all(dir);
}

TEST(OneClassSvm, LoadRejectsTruncatedOrOversizedFile) {
  const auto dir =
      std::filesystem::temp_directory_path() / "osap_svm_reject_test";
  std::filesystem::create_directories(dir);
  const auto path = dir / "model.bin";
  OneClassSvm model;
  model.Fit(MakeBlob(0.0, 0.0, 1.0, 200, 31));
  model.Save(path);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto write = [&](const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  };
  // Header: magic, count, dim (u64 at offsets 8 and 16).
  const auto with_u64 = [&](std::size_t offset, std::uint64_t v) {
    std::string patched = bytes;
    std::memcpy(patched.data() + offset, &v, sizeof(v));
    return patched;
  };

  // Cut in the middle of the last support-vector record.
  write(bytes.substr(0, bytes.size() - 12));
  EXPECT_THROW(OneClassSvm::Load(path), std::runtime_error);
  // A valid magic with counts no file could hold must throw before
  // allocating (a bad_alloc or length_error is not a runtime_error).
  for (const std::uint64_t huge :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 62,
        std::numeric_limits<std::uint64_t>::max()}) {
    write(with_u64(8, huge));
    EXPECT_THROW(OneClassSvm::Load(path), std::runtime_error) << huge;
    write(with_u64(16, huge));
    EXPECT_THROW(OneClassSvm::Load(path), std::runtime_error) << huge;
  }
  // One record more than the file holds.
  write(with_u64(8, model.SupportVectorCount() + 1));
  EXPECT_THROW(OneClassSvm::Load(path), std::runtime_error);
  // The intact bytes still load.
  write(bytes);
  EXPECT_EQ(OneClassSvm::Load(path).SupportVectorCount(),
            model.SupportVectorCount());
  std::filesystem::remove_all(dir);
}

TEST(OneClassSvm, LoadMissingFileThrows) {
  EXPECT_THROW(OneClassSvm::Load("/nonexistent/model.bin"),
               std::runtime_error);
}

TEST(OneClassSvm, DecisionValuesBitIdenticalToPerSampleCalls) {
  // The serving path scores whole shard batches with DecisionValues; each
  // row must come out bit-for-bit equal to a DecisionValue call (same
  // scaling, accumulation and support-vector order).
  OneClassSvm model;
  model.Fit(MakeBlob(0.0, 0.0, 1.0, 300, 11));

  Rng rng(13);
  constexpr std::size_t kCount = 64;
  std::vector<double> rows(kCount * 2);
  for (double& v : rows) v = rng.Uniform(-6, 6);
  std::vector<double> batch(kCount);
  model.DecisionValues(rows.data(), kCount, batch);
  for (std::size_t i = 0; i < kCount; ++i) {
    const std::vector<double> probe = {rows[2 * i], rows[2 * i + 1]};
    const double expected = model.DecisionValue(probe);
    EXPECT_EQ(batch[i], expected) << "row " << i;
  }
}

TEST(OneClassSvm, DecisionValuesValidatesArguments) {
  OneClassSvm unfitted;
  std::vector<double> rows(4, 0.0);
  std::vector<double> out(2);
  EXPECT_THROW(unfitted.DecisionValues(rows.data(), 2, out),
               std::invalid_argument);

  OneClassSvm model;
  model.Fit(MakeBlob(0.0, 0.0, 1.0, 50, 17));
  std::vector<double> short_out(1);
  EXPECT_THROW(model.DecisionValues(rows.data(), 2, short_out),
               std::invalid_argument);
  model.DecisionValues(rows.data(), 0, short_out);  // count 0 is a no-op
}

TEST(OneClassSvm, WorksOnAnisotropicData) {
  // Features with very different scales - the standardizer must cope.
  Rng rng(41);
  std::vector<std::vector<double>> train;
  for (int i = 0; i < 300; ++i) {
    train.push_back({rng.Normal(1000.0, 100.0), rng.Normal(0.01, 0.001)});
  }
  OneClassSvm model;
  model.Fit(train);
  EXPECT_GT(model.InlierFraction(train), 0.9);
  // Outlier in the small-scale dimension only.
  EXPECT_FALSE(model.IsInlier(std::vector<double>{1000.0, 0.05}));
}

}  // namespace
}  // namespace osap::svm
