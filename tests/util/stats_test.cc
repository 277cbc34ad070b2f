#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace osap {
namespace {

TEST(RunningStats, EmptyIsAllZero) {
  RunningStats s;
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Variance(), 0.0);
  EXPECT_EQ(s.Min(), 0.0);
  EXPECT_EQ(s.Max(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.Add(3.5);
  EXPECT_EQ(s.Count(), 1u);
  EXPECT_DOUBLE_EQ(s.Mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.Min(), 3.5);
  EXPECT_DOUBLE_EQ(s.Max(), 3.5);
}

TEST(RunningStats, KnownSmallSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 4.0);  // classic textbook sample
  EXPECT_DOUBLE_EQ(s.StdDev(), 2.0);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
}

TEST(RunningStats, SampleVarianceUsesBesselCorrection) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.Variance(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.SampleVariance(), 1.0);
}

TEST(RunningStats, NumericallyStableForLargeOffsets) {
  // Welford must not cancel catastrophically around a large mean.
  RunningStats s;
  const double offset = 1e9;
  for (double x : {offset + 1.0, offset + 2.0, offset + 3.0}) s.Add(x);
  EXPECT_NEAR(s.Variance(), 2.0 / 3.0, 1e-6);
}

TEST(RunningStats, ResetClearsState) {
  RunningStats s;
  s.Add(1.0);
  s.Add(2.0);
  s.Reset();
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_EQ(s.Mean(), 0.0);
}

TEST(SlidingWindowStats, RejectsZeroCapacity) {
  EXPECT_THROW(SlidingWindowStats(0), std::invalid_argument);
}

TEST(SlidingWindowStats, FillsThenSlides) {
  SlidingWindowStats w(3);
  w.Push(1.0);
  EXPECT_FALSE(w.Full());
  w.Push(2.0);
  w.Push(3.0);
  EXPECT_TRUE(w.Full());
  EXPECT_DOUBLE_EQ(w.Mean(), 2.0);
  w.Push(4.0);  // evicts 1.0
  EXPECT_DOUBLE_EQ(w.Mean(), 3.0);
  EXPECT_EQ(w.Size(), 3u);
}

TEST(SlidingWindowStats, ValuesAreOldestFirst) {
  SlidingWindowStats w(3);
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) w.Push(x);
  const std::vector<double> expected = {3.0, 4.0, 5.0};
  EXPECT_EQ(w.Values(), expected);
}

TEST(SlidingWindowStats, VarianceMatchesBatchComputation) {
  Rng rng(2);
  SlidingWindowStats w(10);
  std::vector<double> history;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.Uniform(0.0, 5.0);
    w.Push(x);
    history.push_back(x);
    if (w.Full()) {
      RunningStats batch;
      for (std::size_t j = history.size() - 10; j < history.size(); ++j) {
        batch.Add(history[j]);
      }
      ASSERT_NEAR(w.Variance(), batch.Variance(), 1e-9);
      ASSERT_NEAR(w.Mean(), batch.Mean(), 1e-9);
    }
  }
}

TEST(SlidingWindowStats, VarianceNeverNegative) {
  SlidingWindowStats w(5);
  for (int i = 0; i < 100; ++i) {
    w.Push(7.777777);  // identical values: cancellation-prone
    EXPECT_GE(w.Variance(), 0.0);
  }
}

TEST(SlidingWindowStats, ResetEmptiesWindow) {
  SlidingWindowStats w(4);
  w.Push(1.0);
  w.Push(2.0);
  w.Reset();
  EXPECT_EQ(w.Size(), 0u);
  EXPECT_EQ(w.Mean(), 0.0);
}

TEST(SlidingWindowStats, PlacementStorageMatchesOwningWindow) {
  // The serving path keeps a bare SlidingWindow over ring memory it owns;
  // it must be bit-identical to the owning window.
  Rng rng(7);
  std::vector<double> ring(6, -1.0);  // contents need no initialization
  SlidingWindow placed;
  SlidingWindowStats owning(6);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.Uniform(0.0, 9.0);
    owning.Push(x);
    placed.Push(ring, x);
    ASSERT_EQ(placed.size, owning.Size());
    ASSERT_EQ(placed.Mean(), owning.Mean()) << "step " << i;
    ASSERT_EQ(placed.Variance(), owning.Variance()) << "step " << i;
  }
}

TEST(SlidingWindowStats, RejectsCapacityAboveTheCursorRange) {
  EXPECT_THROW(SlidingWindowStats(kMaxWindowCapacity + 1),
               std::invalid_argument);
  EXPECT_EQ(SlidingWindowStats(kMaxWindowCapacity).Capacity(),
            kMaxWindowCapacity);
}

TEST(SlidingWindowStats, CopyIsDeepAndIndependent) {
  SlidingWindowStats original(3);
  original.Push(1.0);
  original.Push(2.0);

  SlidingWindowStats copy = original;
  copy.Push(3.0);
  copy.Push(4.0);  // wraps in the copy only
  EXPECT_EQ(original.Values(), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(original.Size(), 2u);
  EXPECT_DOUBLE_EQ(copy.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(original.Mean(), 1.5);
}

TEST(SlidingWindowStats, NonFiniteValueFailsClosedUntilItLeaves) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {inf, -inf, std::nan(""), 1e200, -1.7e308}) {
    SCOPED_TRACE(bad);
    SlidingWindowStats w(3);
    w.Push(1.0);
    w.Push(bad);
    EXPECT_TRUE(w.Poisoned());
    EXPECT_EQ(w.Variance(), inf);
    EXPECT_TRUE(std::isnan(w.Mean()));
    w.Push(2.0);
    w.Push(4.0);  // evicts 1.0; `bad` still in
    EXPECT_EQ(w.Variance(), inf);
    w.Push(8.0);  // evicts `bad`: the sums describe {2, 4, 8} exactly
    EXPECT_FALSE(w.Poisoned());
    EXPECT_DOUBLE_EQ(w.Mean(), 14.0 / 3.0);
    EXPECT_DOUBLE_EQ(w.Variance(), 84.0 / 3.0 - (14.0 / 3.0) * (14.0 / 3.0));
  }
}

TEST(SlidingWindowStats, OverflowingSumFailsClosedUntilTheValuesLeave) {
  // Each square is finite; their sum is not.
  SlidingWindowStats w(2);
  w.Push(1e154);
  EXPECT_FALSE(w.Poisoned());
  w.Push(1e154);
  EXPECT_EQ(w.Variance(), std::numeric_limits<double>::infinity());
  w.Push(1.0);
  EXPECT_TRUE(w.Poisoned());  // conservatively until the overflow's push leaves
  w.Push(3.0);
  EXPECT_FALSE(w.Poisoned());
  EXPECT_DOUBLE_EQ(w.Variance(), 1.0);
}

TEST(SlidingWindowStats, DwarfingValueIsForgottenWhenItLeaves) {
  // 6e153 squares to a finite 3.6e307 that absorbs every later square;
  // once it leaves, the window must read the values it holds.
  SlidingWindowStats w(4);
  w.Push(6e153);
  for (int i = 0; i < 12; ++i) w.Push(1.0 + i % 4);
  EXPECT_FALSE(w.Poisoned());
  EXPECT_DOUBLE_EQ(w.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(w.Variance(), 1.25);
}

TEST(Median, OddAndEvenLengths) {
  const std::vector<double> odd = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(Median(odd), 3.0);
  const std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Median(even), 2.5);
}

TEST(Median, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(Median(std::vector<double>{}), 0.0);
}

TEST(Quantile, EndpointsAndMidpoint) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.25), 2.0);
}

TEST(Quantile, InterpolatesBetweenSamples) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.35), 3.5);
}

TEST(Quantile, RejectsBadInput) {
  EXPECT_THROW(Quantile(std::vector<double>{}, 0.5), std::invalid_argument);
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(Quantile(xs, 1.5), std::invalid_argument);
}

TEST(Summarize, MatchesManualComputation) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const Summary s = Summarize(xs);
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);
}

TEST(Summarize, EmptyIsZero) {
  const Summary s = Summarize(std::vector<double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(EmpiricalCdf, IsSortedAndReachesOne) {
  const std::vector<double> xs = {3.0, 1.0, 2.0};
  const auto cdf = EmpiricalCdf(xs);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].first, 1.0);
  EXPECT_DOUBLE_EQ(cdf[2].first, 3.0);
  EXPECT_NEAR(cdf[0].second, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(cdf[2].second, 1.0);
}

TEST(MeanStdDev, SpanHelpers) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.0);
  EXPECT_NEAR(StdDev(xs), std::sqrt(2.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev(std::vector<double>{1.0}), 0.0);
}

}  // namespace
}  // namespace osap
