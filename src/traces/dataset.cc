#include "traces/dataset.h"

#include <memory>

#include "util/check.h"

namespace osap::traces {

std::vector<DatasetId> AllDatasetIds() {
  return {DatasetId::kNorway3g,  DatasetId::kBelgium4g,
          DatasetId::kGamma12,   DatasetId::kGamma22,
          DatasetId::kLogistic,  DatasetId::kExponential};
}

std::string DatasetName(DatasetId id) {
  switch (id) {
    case DatasetId::kNorway3g:
      return "norway";
    case DatasetId::kBelgium4g:
      return "belgium";
    case DatasetId::kGamma12:
      return "gamma_1_2";
    case DatasetId::kGamma22:
      return "gamma_2_2";
    case DatasetId::kLogistic:
      return "logistic";
    case DatasetId::kExponential:
      return "exponential";
  }
  OSAP_CHECK_MSG(false, "DatasetName: unknown id");
  return {};
}

std::optional<DatasetId> DatasetFromName(std::string_view name) {
  for (const DatasetId id : AllDatasetIds()) {
    if (DatasetName(id) == name) return id;
  }
  return std::nullopt;
}

std::string DatasetLabel(DatasetId id) {
  switch (id) {
    case DatasetId::kNorway3g:
      return "Norway 3G/HSDPA";
    case DatasetId::kBelgium4g:
      return "Belgium 4G/LTE";
    case DatasetId::kGamma12:
      return "Gamma(1,2)";
    case DatasetId::kGamma22:
      return "Gamma(2,2)";
    case DatasetId::kLogistic:
      return "Logistic(4,0.5)";
    case DatasetId::kExponential:
      return "Exponential(1)";
  }
  OSAP_CHECK_MSG(false, "DatasetLabel: unknown id");
  return {};
}

bool IsSyntheticIid(DatasetId id) {
  switch (id) {
    case DatasetId::kNorway3g:
    case DatasetId::kBelgium4g:
      return false;
    case DatasetId::kGamma12:
    case DatasetId::kGamma22:
    case DatasetId::kLogistic:
    case DatasetId::kExponential:
      return true;
  }
  OSAP_CHECK_MSG(false, "IsSyntheticIid: unknown id");
  return false;
}

std::unique_ptr<TraceGenerator> MakeGenerator(DatasetId id) {
  switch (id) {
    case DatasetId::kNorway3g:
      return MakeNorway3gGenerator();
    case DatasetId::kBelgium4g:
      return MakeBelgium4gGenerator();
    case DatasetId::kGamma12:
      return std::make_unique<IidTraceGenerator>(
          std::make_shared<GammaDistribution>(1.0, 2.0));
    case DatasetId::kGamma22:
      return std::make_unique<IidTraceGenerator>(
          std::make_shared<GammaDistribution>(2.0, 2.0));
    case DatasetId::kLogistic:
      return std::make_unique<IidTraceGenerator>(
          std::make_shared<LogisticDistribution>(4.0, 0.5));
    case DatasetId::kExponential:
      return std::make_unique<IidTraceGenerator>(
          std::make_shared<ExponentialDistribution>(1.0));
  }
  OSAP_CHECK_MSG(false, "MakeGenerator: unknown id");
  return nullptr;
}

Dataset BuildDataset(DatasetId id, const DatasetConfig& config) {
  OSAP_REQUIRE(config.trace_count >= 4,
               "BuildDataset: need >= 4 traces for meaningful splits");
  const auto generator = MakeGenerator(id);
  // Mix the id into the seed so datasets draw from independent streams.
  Rng rng(config.seed * 0x9E3779B97F4A7C15ULL +
          static_cast<std::uint64_t>(id) + 1);
  std::vector<Trace> traces;
  traces.reserve(config.trace_count);
  for (std::size_t i = 0; i < config.trace_count; ++i) {
    Rng trace_rng = rng.Fork();
    traces.push_back(
        generator->Generate(trace_rng, config.trace_duration_seconds, i));
  }
  Dataset ds;
  ds.id = id;
  ds.name = DatasetName(id);
  // 70/30 train/test split, then 30% of train held out for validation
  // (paper Section 3.1). Generation order is random, so a prefix split is
  // an unbiased split.
  const auto train_total =
      static_cast<std::size_t>(0.7 * static_cast<double>(traces.size()));
  const auto validation_count =
      static_cast<std::size_t>(0.3 * static_cast<double>(train_total));
  const std::size_t train_count = train_total - validation_count;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (i < train_count) {
      ds.train.push_back(std::move(traces[i]));
    } else if (i < train_total) {
      ds.validation.push_back(std::move(traces[i]));
    } else {
      ds.test.push_back(std::move(traces[i]));
    }
  }
  OSAP_CHECK(!ds.train.empty() && !ds.test.empty());
  return ds;
}

}  // namespace osap::traces
