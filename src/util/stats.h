// Descriptive statistics used across the library: the one sliding window
// (the U_pi/U_V variance trigger and the ND features), Welford running
// moments (feature scaling), batch summaries (for the Figure 4
// min/max/mean/median rows), quantiles and empirical CDFs (Figure 5), and
// simple vector helpers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

namespace osap {

/// Numerically stable single-pass mean/variance accumulator (Welford).
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Number of observations so far.
  std::size_t Count() const { return n_; }

  /// Mean of observations; 0 when empty.
  double Mean() const { return n_ == 0 ? 0.0 : mean_; }

  /// Population variance (divides by n); 0 when fewer than 2 observations.
  double Variance() const;

  /// Sample variance (divides by n-1); 0 when fewer than 2 observations.
  double SampleVariance() const;

  /// Population standard deviation.
  double StdDev() const;

  /// Smallest / largest observation; 0 when empty.
  double Min() const { return n_ == 0 ? 0.0 : min_; }
  double Max() const { return n_ == 0 ? 0.0 : max_; }

  /// Resets to the empty state.
  void Reset();

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Largest ring a SlidingWindow indexes (its cursors are 16-bit).
inline constexpr std::size_t kMaxWindowCapacity = 0xffff;

/// The one sliding-window routine: O(1) mean/variance over the last
/// `capacity` pushed values. It runs the defaulting trigger ("variance of
/// the uncertainty signal across the last k time steps", paper Section
/// 2.5, through core::SafetyObserve), the ND feature extractor ("mean and
/// standard deviation of the 10 most recent network throughputs",
/// Section 3.1), calibration and the tests' reference trigger.
///
/// The state is plain data (24 bytes, trivially copyable); the ring is
/// always caller memory: `ring.size()` is the capacity (1 to
/// kMaxWindowCapacity), its contents need no initialization, and every
/// call for one window must pass the same ring. Zero-initialization is the
/// empty window.
///
/// Fails closed. A value whose square is not finite never enters the
/// running sums; while such a value, or a sum that overflowed, is in the
/// window, Poisoned() holds, Variance() reads +inf and Mean() NaN, so any
/// threshold on either counts the window as uncertain. Once it has left,
/// the sums are rebuilt from the ring, so a window never remembers a value
/// it no longer holds. They are rebuilt too when an evicted value dwarfed
/// the rest of the window by more than the double precision (its square
/// absorbed theirs in the sums). Any other finite stream whose sums stay
/// finite takes neither path, so its floats are those of the plain
/// running sums.
struct SlidingWindow {
  double sum = 0.0;
  double sum_sq = 0.0;
  std::uint16_t size = 0;      // values in the ring
  std::uint16_t head = 0;      // oldest slot once full
  std::uint16_t poisoned = 0;  // pushes until the sums describe the ring

  /// Pushes `x`, evicting the oldest value when the ring is full.
  void Push(std::span<double> ring, double x) {
    const auto capacity = static_cast<std::uint16_t>(ring.size());
    const double x_sq = x * x;
    const bool clean = poisoned == 0;
    bool absorbed = false;
    if (size < capacity) {
      ring[size++] = x;
    } else {
      const double old = ring[head];
      if (clean) {
        const double old_sq = old * old;
        sum -= old;
        sum_sq -= old_sq;
        // An evicted value that dwarfed the rest by more than the double
        // precision took their share of the sums with it.
        absorbed = sum_sq < old_sq * std::numeric_limits<double>::epsilon();
      }
      ring[head] = x;
      head = static_cast<std::uint16_t>((head + 1) % capacity);
    }
    const bool finite = std::isfinite(x_sq);
    if (clean && finite && !absorbed) {
      sum += x;
      sum_sq += x_sq;
    } else if (clean ? finite : --poisoned == 0) {
      Rebuild(ring);
    }
    // While poisoned the sums are stale: only a new non-finite value
    // extends the poison then.
    if (!finite || (poisoned == 0 && !std::isfinite(sum_sq))) {
      poisoned = capacity;
    }
  }

  bool Poisoned() const { return poisoned != 0; }

  /// Mean over current contents; 0 when empty, NaN while poisoned.
  double Mean() const {
    if (poisoned != 0) return std::numeric_limits<double>::quiet_NaN();
    return size == 0 ? 0.0 : sum / static_cast<double>(size);
  }

  /// Population variance over current contents; 0 when fewer than 2,
  /// +inf while poisoned.
  double Variance() const {
    if (poisoned != 0) return std::numeric_limits<double>::infinity();
    if (size < 2) return 0.0;
    const double n = static_cast<double>(size);
    const double m = sum / n;
    // Guard against tiny negative values from cancellation.
    return std::max(0.0, sum_sq / n - m * m);
  }

 private:
  /// Recomputes the sums from the ring, oldest first.
  void Rebuild(std::span<const double> ring);
};
static_assert(sizeof(SlidingWindow) == 24 &&
              std::is_trivially_copyable_v<SlidingWindow>);

/// A SlidingWindow with its own ring, for callers that keep one window
/// per object (calibration, tests).
class SlidingWindowStats {
 public:
  /// Capacity must be in [1, kMaxWindowCapacity].
  explicit SlidingWindowStats(std::size_t capacity);

  /// Pushes an observation, evicting the oldest when full.
  void Push(double x) { window_.Push(ring_, x); }

  /// True once capacity observations have been pushed.
  bool Full() const { return window_.size == ring_.size(); }
  bool Poisoned() const { return window_.Poisoned(); }

  std::size_t Size() const { return window_.size; }
  std::size_t Capacity() const { return ring_.size(); }

  double Mean() const { return window_.Mean(); }
  double Variance() const { return window_.Variance(); }
  double StdDev() const { return std::sqrt(Variance()); }

  /// Contents oldest-first (copies; window is small by construction).
  std::vector<double> Values() const;

  void Reset() { window_ = SlidingWindow{}; }

 private:
  std::vector<double> ring_;
  SlidingWindow window_;
};

/// Batch summary of a sample: the exact statistics Figure 4 reports.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double median = 0.0;
  double stddev = 0.0;
};

/// Computes a Summary; tolerates empty input (all-zero summary).
Summary Summarize(std::span<const double> xs);

/// Arithmetic mean; 0 for empty input.
double Mean(std::span<const double> xs);

/// Population standard deviation; 0 for fewer than 2 elements.
double StdDev(std::span<const double> xs);

/// Median via partial sort of a copy; 0 for empty input.
double Median(std::span<const double> xs);

/// Linear-interpolated quantile, q in [0,1]. Requires non-empty input.
double Quantile(std::span<const double> xs, double q);

/// One (value, cumulative-probability) point per sorted sample, i.e. the
/// empirical CDF Figure 5 plots. Probability of the i-th smallest value is
/// (i+1)/n.
std::vector<std::pair<double, double>> EmpiricalCdf(
    std::span<const double> xs);

}  // namespace osap
