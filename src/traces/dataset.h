// Datasets: named collections of traces with the paper's train/test split
// (70%/30%, with 30% of the training set held out for validation,
// Section 3.1). A DatasetId enumerates the six distributions the paper
// evaluates; BuildDataset deterministically materializes one from a seed.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "traces/generators.h"
#include "traces/trace.h"

namespace osap::traces {

/// The six distributions evaluated in the paper (Section 3.1).
enum class DatasetId {
  kNorway3g = 0,     // 3G/HSDPA mobile dataset stand-in [40]
  kBelgium4g = 1,    // 4G/LTE mobile dataset stand-in [58]
  kGamma12 = 2,      // Gamma(shape=1, scale=2)
  kGamma22 = 3,      // Gamma(shape=2, scale=2)
  kLogistic = 4,     // Logistic(mu=4, scale=0.5)
  kExponential = 5,  // Exponential(scale=1)
};

/// All six ids in the paper's presentation order.
std::vector<DatasetId> AllDatasetIds();

/// Short stable name, e.g. "norway", "gamma_2_2".
std::string DatasetName(DatasetId id);

/// The id whose DatasetName is `name`; nullopt for any other name.
std::optional<DatasetId> DatasetFromName(std::string_view name);

/// Human-readable label, e.g. "Norway 3G/HSDPA", "Gamma(2,2)".
std::string DatasetLabel(DatasetId id);

/// True for the four i.i.d. synthetic distributions; the paper uses a
/// longer ND window (k = 30 instead of 5) for these.
bool IsSyntheticIid(DatasetId id);

/// The generator for a dataset id.
std::unique_ptr<TraceGenerator> MakeGenerator(DatasetId id);

/// A materialized dataset with the paper's splits.
struct Dataset {
  DatasetId id{};
  std::string name;
  std::vector<Trace> train;
  std::vector<Trace> validation;
  std::vector<Trace> test;

  std::size_t TotalTraces() const {
    return train.size() + validation.size() + test.size();
  }
};

struct DatasetConfig {
  /// Traces generated per dataset before splitting.
  std::size_t trace_count = 40;
  /// Seconds of throughput per trace. Must cover a meaningful fraction of
  /// the 240-chunk (~960 s) video; traces wrap when shorter.
  double trace_duration_seconds = 320.0;
  /// Base seed; the dataset id is mixed in so datasets are independent.
  std::uint64_t seed = 2020;
};

/// Deterministically builds a dataset: generates `trace_count` traces and
/// splits 70/30 into train/test, then holds out 30% of train as validation.
Dataset BuildDataset(DatasetId id, const DatasetConfig& config = {});

}  // namespace osap::traces
