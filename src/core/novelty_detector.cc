#include "core/novelty_detector.h"

#include <cmath>

#include "util/check.h"

namespace osap::core {

NoveltyFeatureExtractor::NoveltyFeatureExtractor(
    const NoveltyDetectorConfig& config)
    : config_(config), storage_(StorageDoubles(config)) {
  OSAP_REQUIRE(config.throughput_window >= 2 &&
                   config.throughput_window <= kMaxWindowCapacity,
               "NoveltyDetector: throughput window must be in [2, 65535]");
  OSAP_REQUIRE(config.k >= 1, "NoveltyDetector: k must be >= 1");
}

bool NoveltyFeatureExtractor::Push(const NoveltyDetectorConfig& config,
                                   NoveltyFeatureState& state,
                                   std::span<double> storage,
                                   double throughput_mbps,
                                   std::span<double> out) {
  const auto k = static_cast<std::uint32_t>(config.k);
  OSAP_REQUIRE(storage.size() >= StorageDoubles(config) &&
                   out.size() >= 2 * static_cast<std::size_t>(k),
               "NoveltyFeatureExtractor::Push: storage or output too short");
  const std::span<double> ring = storage.first(config.throughput_window);
  double* pairs = storage.data() + config.throughput_window;
  state.window.Push(ring, throughput_mbps);
  if (state.window.size < ring.size()) return false;
  // Overwrite the oldest slot; until the ring fills, the oldest slot is
  // simply the next unused one.
  const std::uint32_t slot = (state.head + state.count) % k;
  pairs[2 * slot] = state.window.Mean();
  pairs[2 * slot + 1] = std::sqrt(state.window.Variance());
  if (state.count < k) {
    ++state.count;
  } else {
    state.head = (state.head + 1) % k;
  }
  if (state.count < k) return false;
  std::size_t i = 0;
  for (std::uint32_t p = 0; p < k; ++p) {
    const std::uint32_t source = (state.head + p) % k;
    out[i++] = pairs[2 * source];
    out[i++] = pairs[2 * source + 1];
  }
  return true;
}

std::optional<std::vector<double>> NoveltyFeatureExtractor::Push(
    double throughput_mbps) {
  std::vector<double> feature(FeatureSize());
  if (!Push(throughput_mbps, feature)) return std::nullopt;
  return feature;
}

NoveltyDetector::NoveltyDetector(NoveltyDetectorConfig config,
                                 const abr::AbrStateLayout& layout)
    : NoveltyDetector(config, [layout](const mdp::State& s) {
        OSAP_REQUIRE(s.size() == layout.Size(),
                     "NoveltyDetector: state size mismatch");
        return layout.LatestThroughputMbps(s);
      }) {}

NoveltyDetector::NoveltyDetector(NoveltyDetectorConfig config, Probe probe)
    : config_(config),
      probe_(std::move(probe)),
      model_(config.svm),
      extractor_(config) {
  OSAP_REQUIRE(probe_ != nullptr, "NoveltyDetector: null probe");
}

std::vector<std::vector<double>> NoveltyDetector::ExtractFeatures(
    std::span<const double> throughput_sequence,
    const NoveltyDetectorConfig& config) {
  NoveltyFeatureExtractor extractor(config);
  std::vector<std::vector<double>> features;
  for (double mbps : throughput_sequence) {
    if (auto feature = extractor.Push(mbps)) {
      features.push_back(std::move(*feature));
    }
  }
  return features;
}

void NoveltyDetector::Fit(
    const std::vector<std::vector<double>>& features) {
  OSAP_REQUIRE(!features.empty(),
               "NoveltyDetector::Fit: no features (sessions too short for "
               "the configured window and k?)");
  model_.Fit(features);
}

void NoveltyDetector::Reset() {
  extractor_.Reset();
  ready_ = false;
}

double NoveltyDetector::Score(const mdp::State& state) {
  OSAP_REQUIRE(Fitted(), "NoveltyDetector::Score before Fit/LoadModel");
  const double observation = probe_(state);
  // Warm-up steps (before the first measurement) report non-positive
  // observations; feeding those would poison the window.
  if (observation <= 0.0) return 0.0;
  const auto feature = extractor_.Push(observation);
  if (!feature.has_value()) {
    ready_ = false;
    return 0.0;
  }
  ready_ = true;
  return model_.IsInlier(*feature) ? 0.0 : 1.0;
}

void NoveltyDetector::Save(const std::filesystem::path& path) const {
  model_.Save(path);
}

void NoveltyDetector::LoadModel(const std::filesystem::path& path) {
  model_ = svm::OneClassSvm::Load(path);
}

}  // namespace osap::core
