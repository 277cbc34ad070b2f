#include "traces/dataset.h"

#include <gtest/gtest.h>

#include <set>

namespace osap::traces {
namespace {

TEST(Dataset, AllSixPaperDatasetsEnumerated) {
  const auto ids = AllDatasetIds();
  EXPECT_EQ(ids.size(), 6u);
  std::set<std::string> names;
  for (DatasetId id : ids) names.insert(DatasetName(id));
  EXPECT_EQ(names.size(), 6u);
}

TEST(Dataset, NameLookupRoundTripsEveryId) {
  for (const DatasetId id : AllDatasetIds()) {
    EXPECT_EQ(DatasetFromName(DatasetName(id)), id) << DatasetName(id);
  }
  EXPECT_EQ(DatasetFromName("gamma"), std::nullopt);
  EXPECT_EQ(DatasetFromName("Gamma_2_2"), std::nullopt);
  EXPECT_EQ(DatasetFromName(""), std::nullopt);
}

TEST(Dataset, SyntheticFlagMatchesPaper) {
  EXPECT_FALSE(IsSyntheticIid(DatasetId::kNorway3g));
  EXPECT_FALSE(IsSyntheticIid(DatasetId::kBelgium4g));
  EXPECT_TRUE(IsSyntheticIid(DatasetId::kGamma12));
  EXPECT_TRUE(IsSyntheticIid(DatasetId::kGamma22));
  EXPECT_TRUE(IsSyntheticIid(DatasetId::kLogistic));
  EXPECT_TRUE(IsSyntheticIid(DatasetId::kExponential));
}

TEST(Dataset, SplitRatiosMatchPaper) {
  DatasetConfig cfg;
  cfg.trace_count = 40;
  const Dataset ds = BuildDataset(DatasetId::kGamma22, cfg);
  EXPECT_EQ(ds.TotalTraces(), 40u);
  // 70% train_total = 28; 30% of that = 8 validation, 20 train; 12 test.
  EXPECT_EQ(ds.test.size(), 12u);
  EXPECT_EQ(ds.validation.size(), 8u);
  EXPECT_EQ(ds.train.size(), 20u);
}

TEST(Dataset, SplitsAreDisjointTraces) {
  const Dataset ds = BuildDataset(DatasetId::kNorway3g);
  std::set<std::string> names;
  for (const auto& t : ds.train) names.insert(t.name());
  for (const auto& t : ds.validation) names.insert(t.name());
  for (const auto& t : ds.test) names.insert(t.name());
  EXPECT_EQ(names.size(), ds.TotalTraces());
}

TEST(Dataset, DeterministicForFixedSeed) {
  const Dataset a = BuildDataset(DatasetId::kExponential);
  const Dataset b = BuildDataset(DatasetId::kExponential);
  ASSERT_EQ(a.train.size(), b.train.size());
  EXPECT_EQ(a.train[0].samples(), b.train[0].samples());
  EXPECT_EQ(a.test.back().samples(), b.test.back().samples());
}

TEST(Dataset, DifferentSeedsDifferentTraces) {
  DatasetConfig cfg1;
  cfg1.seed = 1;
  DatasetConfig cfg2;
  cfg2.seed = 2;
  const Dataset a = BuildDataset(DatasetId::kGamma12, cfg1);
  const Dataset b = BuildDataset(DatasetId::kGamma12, cfg2);
  EXPECT_NE(a.train[0].samples(), b.train[0].samples());
}

TEST(Dataset, DatasetsAreIndependentStreams) {
  // Same seed, different ids -> different traces.
  const Dataset a = BuildDataset(DatasetId::kGamma12);
  const Dataset b = BuildDataset(DatasetId::kExponential);
  EXPECT_NE(a.train[0].samples(), b.train[0].samples());
}

TEST(Dataset, TraceDurationHonored) {
  DatasetConfig cfg;
  cfg.trace_duration_seconds = 123.0;
  const Dataset ds = BuildDataset(DatasetId::kLogistic, cfg);
  EXPECT_EQ(ds.train[0].SampleCount(), 123u);
}

TEST(Dataset, RejectsTooFewTraces) {
  DatasetConfig cfg;
  cfg.trace_count = 2;
  EXPECT_THROW(BuildDataset(DatasetId::kGamma22, cfg),
               std::invalid_argument);
}

TEST(Dataset, GeneratorFactoryCoversAllIds) {
  for (DatasetId id : AllDatasetIds()) {
    const auto gen = MakeGenerator(id);
    ASSERT_NE(gen, nullptr);
    Rng rng(1);
    const Trace t = gen->Generate(rng, 30.0, 0);
    EXPECT_EQ(t.SampleCount(), 30u);
  }
}

TEST(Dataset, LabelsAreHumanReadable) {
  EXPECT_EQ(DatasetLabel(DatasetId::kGamma22), "Gamma(2,2)");
  EXPECT_EQ(DatasetLabel(DatasetId::kNorway3g), "Norway 3G/HSDPA");
}

}  // namespace
}  // namespace osap::traces
