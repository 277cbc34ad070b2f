#include "core/novelty_detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>

#include "util/rng.h"
#include "util/stats.h"

namespace osap::core {
namespace {

NoveltyDetectorConfig SmallConfig() {
  NoveltyDetectorConfig cfg;
  cfg.throughput_window = 4;
  cfg.k = 3;
  return cfg;
}

/// Synthetic per-chunk throughput sequence ~ N(mean, sd), clamped > 0.
std::vector<double> ThroughputSequence(double mean, double sd,
                                       std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> seq;
  seq.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    seq.push_back(std::max(0.05, rng.Normal(mean, sd)));
  }
  return seq;
}

TEST(NoveltyFeatureExtractor, WarmupProducesNoFeatures) {
  NoveltyFeatureExtractor extractor(SmallConfig());
  // window 4, k 3: first feature after 4 + 3 - 1 = 6 pushes.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(extractor.Push(2.0).has_value()) << "push " << i;
  }
  EXPECT_TRUE(extractor.Push(2.0).has_value());
}

TEST(NoveltyFeatureExtractor, FeatureLayoutIsKMeanStdPairs) {
  NoveltyFeatureExtractor extractor(SmallConfig());
  std::optional<std::vector<double>> feature;
  // Constant input: every mean = 3, every std = 0.
  for (int i = 0; i < 10; ++i) feature = extractor.Push(3.0);
  ASSERT_TRUE(feature.has_value());
  ASSERT_EQ(feature->size(), 6u);  // 3 pairs
  for (std::size_t i = 0; i < 6; i += 2) {
    EXPECT_NEAR((*feature)[i], 3.0, 1e-12);      // mean
    EXPECT_NEAR((*feature)[i + 1], 0.0, 1e-12);  // std
  }
}

TEST(NoveltyFeatureExtractor, ResetRestartsWarmup) {
  NoveltyFeatureExtractor extractor(SmallConfig());
  for (int i = 0; i < 10; ++i) extractor.Push(1.0);
  extractor.Reset();
  EXPECT_FALSE(extractor.Push(1.0).has_value());
}

/// Reference implementation of the pair history as the deque the extractor
/// used before it was flattened into a fixed-capacity ring. The ring must
/// reproduce this sequence of emitted features bit for bit - same values,
/// same oldest-first order, same warm-up boundaries - including across a
/// Reset() that reuses the ring's storage.
class DequePairHistory {
 public:
  explicit DequePairHistory(const NoveltyDetectorConfig& config)
      : config_(config), window_(config.throughput_window) {}

  bool Push(double throughput_mbps, std::span<double> out) {
    window_.Push(throughput_mbps);
    if (!window_.Full()) return false;
    pairs_.emplace_back(window_.Mean(), window_.StdDev());
    if (pairs_.size() > config_.k) pairs_.pop_front();
    if (pairs_.size() < config_.k) return false;
    std::size_t i = 0;
    for (const auto& [mean, stddev] : pairs_) {
      out[i++] = mean;
      out[i++] = stddev;
    }
    return true;
  }

  void Reset() {
    window_.Reset();
    pairs_.clear();
  }

 private:
  NoveltyDetectorConfig config_;
  SlidingWindowStats window_;
  std::deque<std::pair<double, double>> pairs_;
};

TEST(NoveltyFeatureExtractor, RingMatchesDequeReferenceBitForBit) {
  const auto cfg = SmallConfig();
  NoveltyFeatureExtractor ring(cfg);
  DequePairHistory deque_ref(cfg);
  // Long enough to wrap the k-slot ring many times, with a Reset mid-way
  // to cover warm-up restarting over reused storage.
  const auto seq = ThroughputSequence(3.0, 1.0, 300, 42);
  std::vector<double> ring_out(2 * cfg.k);
  std::vector<double> deque_out(2 * cfg.k);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (i == 150) {
      ring.Reset();
      deque_ref.Reset();
    }
    const bool ring_emitted = ring.Push(seq[i], ring_out);
    const bool deque_emitted = deque_ref.Push(seq[i], deque_out);
    ASSERT_EQ(ring_emitted, deque_emitted) << "push " << i;
    if (!ring_emitted) continue;
    for (std::size_t d = 0; d < ring_out.size(); ++d) {
      // Bit-identity (same doubles, not nearly-equal doubles): both sides
      // store the same window statistics, only the container differs.
      EXPECT_EQ(ring_out[d], deque_out[d]) << "push " << i << " dim " << d;
    }
  }
}

TEST(NoveltyFeatureExtractor, PlacementStorageMatchesOwningBitForBit) {
  // The serving path keeps only each session's NoveltyFeatureState and
  // finds its window + pair storage in a shard slab; the static Push over
  // them must stream exactly the owning extractor's features, including
  // across a reset over recycled storage.
  const auto cfg = SmallConfig();
  NoveltyFeatureExtractor owning(cfg);
  std::vector<double> storage(NoveltyFeatureExtractor::StorageDoubles(cfg),
                              -7.0);  // deliberately dirty
  NoveltyFeatureState placed;
  const auto seq = ThroughputSequence(3.0, 1.0, 200, 9);
  std::vector<double> owning_out(2 * cfg.k);
  std::vector<double> placed_out(2 * cfg.k);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (i == 100) {
      owning.Reset();
      placed = NoveltyFeatureState{};
    }
    const bool a = owning.Push(seq[i], owning_out);
    const bool b = NoveltyFeatureExtractor::Push(cfg, placed, storage, seq[i],
                                                 placed_out);
    ASSERT_EQ(a, b) << "push " << i;
    if (!a) continue;
    for (std::size_t d = 0; d < owning_out.size(); ++d) {
      EXPECT_EQ(placed_out[d], owning_out[d]) << "push " << i << " dim " << d;
    }
  }
}

TEST(NoveltyFeatureExtractor, PlacementRejectsTooSmallStorage) {
  const auto cfg = SmallConfig();
  std::vector<double> storage(NoveltyFeatureExtractor::StorageDoubles(cfg) -
                              1);
  NoveltyFeatureState state;
  std::vector<double> out(2 * cfg.k);
  EXPECT_THROW(
      NoveltyFeatureExtractor::Push(cfg, state, storage, 1.0, out),
      std::invalid_argument);
}

TEST(NoveltyFeatureExtractor, CopyIsDeepAndIndependent) {
  const auto cfg = SmallConfig();
  NoveltyFeatureExtractor original(cfg);
  for (int i = 0; i < 6; ++i) original.Push(2.0 + i);

  NoveltyFeatureExtractor copy = original;
  std::vector<double> out(2 * cfg.k);
  for (int i = 0; i < 6; ++i) copy.Push(9.0 + i, out);

  // Pushes into the copy left the original's history alone: it still
  // emits exactly what a fresh replay of its own stream emits.
  NoveltyFeatureExtractor replay(cfg);
  for (int i = 0; i < 6; ++i) replay.Push(2.0 + i);
  std::vector<double> original_out(2 * cfg.k);
  std::vector<double> replay_out(2 * cfg.k);
  ASSERT_TRUE(original.Push(8.0, original_out));
  ASSERT_TRUE(replay.Push(8.0, replay_out));
  EXPECT_EQ(original_out, replay_out);
  ASSERT_TRUE(copy.Push(8.0, out));
  EXPECT_NE(original_out, out);  // different histories, different features
}

TEST(NoveltyFeatureExtractor, NonFiniteThroughputPoisonsEveryFeatureItReaches) {
  // window 4, k 3: a poisoned window yields a [NaN, +inf] pair, and the
  // pair stays in the feature for k pushes after the window heals.
  const auto cfg = SmallConfig();
  NoveltyFeatureExtractor extractor(cfg);
  std::vector<double> out(2 * cfg.k);
  for (int i = 0; i < 10; ++i) ASSERT_EQ(extractor.Push(2.0, out), i >= 5);
  const auto finite = [&] {
    return std::all_of(out.begin(), out.end(),
                       [](double v) { return std::isfinite(v); });
  };
  ASSERT_TRUE(finite());
  ASSERT_TRUE(extractor.Push(1.7e308, out));
  for (int i = 0; i < 4 + 3 - 1; ++i) {
    // A NaN mean makes the OC-SVM decision value NaN: never an inlier.
    EXPECT_TRUE(std::any_of(out.begin(), out.end(),
                            [](double v) { return std::isnan(v); }))
        << "push " << i;
    ASSERT_TRUE(extractor.Push(2.0, out));
  }
  EXPECT_TRUE(finite());
  EXPECT_EQ(out, std::vector<double>({2.0, 0.0, 2.0, 0.0, 2.0, 0.0}));
}

TEST(NoveltyDetector, ExtractFeaturesCountsMatchWindowAndK) {
  const auto cfg = SmallConfig();
  const auto seq = ThroughputSequence(3.0, 0.5, 20, 1);
  const auto features = NoveltyDetector::ExtractFeatures(seq, cfg);
  // First feature at index window+k-2 = 5 -> 20 - 6 + 1 = 15 features.
  EXPECT_EQ(features.size(), 15u);
  for (const auto& f : features) EXPECT_EQ(f.size(), 2u * cfg.k);
}

TEST(NoveltyDetector, FlagsShiftedDistributionAsOod) {
  const auto cfg = SmallConfig();
  abr::AbrStateLayout layout;
  NoveltyDetector detector(cfg, layout);
  // Train on ~3 Mbps sessions.
  std::vector<std::vector<double>> train_features;
  for (int s = 0; s < 20; ++s) {
    const auto session = ThroughputSequence(3.0, 0.4, 60, 100 + s);
    for (auto& f : NoveltyDetector::ExtractFeatures(session, cfg)) {
      train_features.push_back(std::move(f));
    }
  }
  detector.Fit(train_features);

  // In-distribution test features are mostly inliers.
  const auto in_features = NoveltyDetector::ExtractFeatures(
      ThroughputSequence(3.0, 0.4, 200, 999), cfg);
  std::size_t in_flagged = 0;
  for (const auto& f : in_features) {
    if (!detector.model().IsInlier(f)) ++in_flagged;
  }
  EXPECT_LT(static_cast<double>(in_flagged) / in_features.size(), 0.25);

  // A throughput collapse is flagged.
  const auto ood_features = NoveltyDetector::ExtractFeatures(
      ThroughputSequence(0.3, 0.05, 200, 998), cfg);
  std::size_t ood_flagged = 0;
  for (const auto& f : ood_features) {
    if (!detector.model().IsInlier(f)) ++ood_flagged;
  }
  EXPECT_GT(static_cast<double>(ood_flagged) / ood_features.size(), 0.9);
}

TEST(NoveltyDetector, ScoreReadsThroughputFromState) {
  const auto cfg = SmallConfig();
  abr::AbrStateLayout layout;
  NoveltyDetector detector(cfg, layout);
  std::vector<std::vector<double>> train_features;
  for (int s = 0; s < 10; ++s) {
    for (auto& f : NoveltyDetector::ExtractFeatures(
             ThroughputSequence(3.0, 0.3, 60, 200 + s), cfg)) {
      train_features.push_back(std::move(f));
    }
  }
  detector.Fit(train_features);

  auto state_with_throughput = [&](double mbps) {
    mdp::State s(layout.Size(), 0.0);
    s[layout.ThroughputBegin() + layout.history - 1] =
        mbps / abr::AbrStateLayout::kThroughputNormMbps;
    return s;
  };
  // In-distribution observations must be noisy like the training data:
  // a perfectly constant feed has zero window-stddev, which itself is an
  // outlier with respect to N(3, 0.3) windows.
  Rng rng(7);
  auto in_dist = [&] { return std::max(0.05, rng.Normal(3.0, 0.3)); };

  // Warm-up: scores 0 and not ready.
  detector.Reset();
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(detector.Score(state_with_throughput(in_dist())), 0.0);
  }
  EXPECT_FALSE(detector.Ready());
  // Feed enough in-distribution samples: ready, score 0.
  for (int i = 0; i < 10; ++i) {
    detector.Score(state_with_throughput(in_dist()));
  }
  EXPECT_TRUE(detector.Ready());
  EXPECT_DOUBLE_EQ(detector.Score(state_with_throughput(in_dist())), 0.0);
  // Sustained collapse flips the score to 1.
  double last = 0.0;
  for (int i = 0; i < 12; ++i) {
    last = detector.Score(state_with_throughput(0.1));
  }
  EXPECT_DOUBLE_EQ(last, 1.0);
}

TEST(NoveltyDetector, ZeroThroughputWarmupIsIgnored) {
  const auto cfg = SmallConfig();
  abr::AbrStateLayout layout;
  NoveltyDetector detector(cfg, layout);
  std::vector<std::vector<double>> features;
  for (auto& f : NoveltyDetector::ExtractFeatures(
           ThroughputSequence(3.0, 0.3, 100, 1), cfg)) {
    features.push_back(std::move(f));
  }
  detector.Fit(features);
  // Initial states (no download yet) must not poison the window.
  const mdp::State zero_state(layout.Size(), 0.0);
  EXPECT_DOUBLE_EQ(detector.Score(zero_state), 0.0);
  EXPECT_FALSE(detector.Ready());
}

TEST(NoveltyDetector, ScoreBeforeFitThrows) {
  NoveltyDetector detector(SmallConfig(), abr::AbrStateLayout{});
  EXPECT_THROW(detector.Score(mdp::State(abr::AbrStateLayout{}.Size(), 0.0)),
               std::invalid_argument);
}

TEST(NoveltyDetector, FitRejectsEmptyFeatures) {
  NoveltyDetector detector(SmallConfig(), abr::AbrStateLayout{});
  EXPECT_THROW(detector.Fit({}), std::invalid_argument);
}

TEST(NoveltyDetector, SaveLoadRoundTrip) {
  const auto dir =
      std::filesystem::temp_directory_path() / "osap_nd_test";
  std::filesystem::create_directories(dir);
  const auto cfg = SmallConfig();
  abr::AbrStateLayout layout;
  NoveltyDetector detector(cfg, layout);
  std::vector<std::vector<double>> features;
  for (auto& f : NoveltyDetector::ExtractFeatures(
           ThroughputSequence(2.0, 0.3, 120, 7), cfg)) {
    features.push_back(std::move(f));
  }
  detector.Fit(features);
  detector.Save(dir / "nd.bin");

  NoveltyDetector loaded(cfg, layout);
  loaded.LoadModel(dir / "nd.bin");
  for (const auto& f : features) {
    EXPECT_EQ(detector.model().IsInlier(f), loaded.model().IsInlier(f));
  }
  std::filesystem::remove_all(dir);
}

TEST(NoveltyDetector, CopyIsIndependentButSharesModel) {
  const auto cfg = SmallConfig();
  abr::AbrStateLayout layout;
  NoveltyDetector original(cfg, layout);
  std::vector<std::vector<double>> features;
  for (auto& f : NoveltyDetector::ExtractFeatures(
           ThroughputSequence(2.0, 0.3, 120, 8), cfg)) {
    features.push_back(std::move(f));
  }
  original.Fit(features);

  NoveltyDetector copy = original;  // fresh window, same fitted model
  copy.Reset();
  mdp::State s(layout.Size(), 0.0);
  s[layout.ThroughputBegin() + layout.history - 1] = 0.2;
  // Feeding the copy must not advance the original's window.
  for (int i = 0; i < 3; ++i) copy.Score(s);
  EXPECT_FALSE(original.Ready());
}

}  // namespace
}  // namespace osap::core
