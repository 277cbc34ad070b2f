// U_S: novelty detection over observed environment states (paper
// Sections 2.4 and 3.1).
//
// Per step, the detector computes the mean and standard deviation of the
// `throughput_window` (10) most recent measured network throughputs; a
// sample is the concatenation of the `k` latest such [mean, stddev] pairs
// (k = 5 for the empirical datasets, 30 for the synthetic ones). A one-class
// SVM trained on samples from the training distribution classifies each
// test sample as in-distribution (+1) or out-of-distribution (-1); the
// Score is 0 / 1 accordingly.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "abr/state.h"
#include "core/uncertainty.h"
#include "svm/ocsvm.h"
#include "util/stats.h"

namespace osap::core {

struct NoveltyDetectorConfig {
  /// Throughput samples per [mean, stddev] pair.
  std::size_t throughput_window = 10;
  /// Number of latest pairs per OC-SVM sample (paper: 5 empirical /
  /// 30 synthetic).
  std::size_t k = 5;
  svm::OcSvmConfig svm;
};

/// One extractor's streaming state: the throughput window's moments and
/// the cursors of the ring of k [mean, stddev] pairs. Plain data; the
/// window ring and the pairs live in StorageDoubles(config) doubles the
/// caller keeps (an owning NoveltyFeatureExtractor, or a shard slab on the
/// serving path). Zero-initialization is the fresh state.
struct NoveltyFeatureState {
  SlidingWindow window;
  std::uint32_t head = 0;   // oldest pair once the ring is full
  std::uint32_t count = 0;  // pairs held (< k during warm-up)
};

/// Streams throughput observations into OC-SVM feature vectors; shared by
/// online detection and offline training-set extraction so both see
/// identical features. It owns its storage; the serving path runs the
/// same static Push over slab-placed state instead.
///
/// The window fails closed (util SlidingWindow): while a non-finite
/// throughput is in it, its pair is [NaN, +inf], and so is every feature
/// that pair is part of, which the OC-SVM cannot call an inlier.
class NoveltyFeatureExtractor {
 public:
  explicit NoveltyFeatureExtractor(const NoveltyDetectorConfig& config);

  /// Doubles of backing storage an extractor for `config` needs: the
  /// throughput window plus k interleaved [mean, stddev] pairs.
  static std::size_t StorageDoubles(const NoveltyDetectorConfig& config) {
    return config.throughput_window + 2 * config.k;
  }

  /// The one push: streams one throughput observation (Mbps) through
  /// `state` over `storage` (>= StorageDoubles(config) doubles). Writes
  /// the feature (2k dims: k x [mean, stddev], oldest pair first) into
  /// `out` and returns true once enough history has accumulated; returns
  /// false during warm-up with `out` untouched. `config` must be valid.
  static bool Push(const NoveltyDetectorConfig& config,
                   NoveltyFeatureState& state, std::span<double> storage,
                   double throughput_mbps, std::span<double> out);

  /// Push on this extractor's own state; std::nullopt during warm-up.
  std::optional<std::vector<double>> Push(double throughput_mbps);

  /// Allocation-free overload: writes the feature into `out` (>= 2k dims).
  bool Push(double throughput_mbps, std::span<double> out) {
    return Push(config_, state_, storage_, throughput_mbps, out);
  }

  /// Feature dimensionality (2k).
  std::size_t FeatureSize() const { return 2 * config_.k; }

  void Reset() { state_ = NoveltyFeatureState{}; }

 private:
  NoveltyDetectorConfig config_;
  std::vector<double> storage_;
  NoveltyFeatureState state_;
};

class NoveltyDetector final : public UncertaintyEstimator {
 public:
  /// Extracts the monitored scalar from an observation; values <= 0 are
  /// treated as "no measurement yet" (warm-up) and skipped.
  using Probe = std::function<double(const mdp::State&)>;

  /// ABR convenience constructor: monitors the newest measured chunk
  /// throughput from the Pensieve state encoding.
  NoveltyDetector(NoveltyDetectorConfig config,
                  const abr::AbrStateLayout& layout);

  /// Domain-agnostic constructor: monitors whatever scalar `probe`
  /// extracts from the state (e.g. the send/deliver ratio of a congestion
  /// control agent). OSAP itself is domain-independent (paper Section 2);
  /// only this observation probe is application-specific.
  NoveltyDetector(NoveltyDetectorConfig config, Probe probe);

  /// Extracts every feature vector from one session's chunk-throughput
  /// sequence (offline training-set construction).
  static std::vector<std::vector<double>> ExtractFeatures(
      std::span<const double> throughput_sequence,
      const NoveltyDetectorConfig& config);

  /// Fits the OC-SVM on features extracted from training sessions.
  void Fit(const std::vector<std::vector<double>>& features);

  // UncertaintyEstimator
  void Reset() override;
  double Score(const mdp::State& state) override;
  bool Ready() const override { return ready_; }
  std::string Name() const override { return "novelty_detection"; }

  bool Fitted() const { return model_.Fitted(); }
  const svm::OneClassSvm& model() const { return model_; }
  /// The observation probe (shared by the serving path's per-session
  /// extractors so they see exactly the scalar Score would monitor).
  const Probe& probe() const { return probe_; }
  const NoveltyDetectorConfig& config() const { return config_; }

  /// Model persistence (the workbench caches fitted detectors).
  void Save(const std::filesystem::path& path) const;
  void LoadModel(const std::filesystem::path& path);

 private:
  NoveltyDetectorConfig config_;
  Probe probe_;
  svm::OneClassSvm model_;
  NoveltyFeatureExtractor extractor_;
  bool ready_ = false;
};

}  // namespace osap::core
