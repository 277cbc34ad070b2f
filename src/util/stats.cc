#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace osap {

void RunningStats::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::Variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_);
}

double RunningStats::SampleVariance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::StdDev() const { return std::sqrt(Variance()); }

void RunningStats::Reset() {
  n_ = 0;
  mean_ = m2_ = min_ = max_ = 0.0;
}

void SlidingWindow::Rebuild(std::span<const double> ring) {
  sum = sum_sq = 0.0;
  for (std::uint16_t i = 0; i < size; ++i) {
    const double x = ring[(head + i) % ring.size()];
    sum += x;
    sum_sq += x * x;
  }
}

SlidingWindowStats::SlidingWindowStats(std::size_t capacity)
    : ring_(capacity) {
  OSAP_REQUIRE(capacity > 0 && capacity <= kMaxWindowCapacity,
               "SlidingWindowStats capacity must be in [1, 65535]");
}

std::vector<double> SlidingWindowStats::Values() const {
  std::vector<double> out;
  out.reserve(window_.size);
  for (std::size_t i = 0; i < window_.size; ++i) {
    out.push_back(ring_[(window_.head + i) % window_.size]);
  }
  return out;
}

Summary Summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  RunningStats rs;
  for (double x : xs) rs.Add(x);
  s.min = rs.Min();
  s.max = rs.Max();
  s.mean = rs.Mean();
  s.stddev = rs.StdDev();
  s.median = Median(xs);
  return s;
}

double Mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double StdDev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  RunningStats rs;
  for (double x : xs) rs.Add(x);
  return rs.StdDev();
}

double Median(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  std::vector<double> copy(xs.begin(), xs.end());
  const std::size_t mid = copy.size() / 2;
  std::nth_element(copy.begin(), copy.begin() + static_cast<long>(mid),
                   copy.end());
  const double upper = copy[mid];
  if (copy.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(copy.begin(), copy.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

double Quantile(std::span<const double> xs, double q) {
  OSAP_REQUIRE(!xs.empty(), "Quantile requires non-empty input");
  OSAP_REQUIRE(q >= 0.0 && q <= 1.0, "Quantile q must be in [0,1]");
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  const double pos = q * static_cast<double>(copy.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, copy.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return copy[lo] * (1.0 - frac) + copy[hi] * frac;
}

std::vector<std::pair<double, double>> EmpiricalCdf(
    std::span<const double> xs) {
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  std::vector<std::pair<double, double>> cdf;
  cdf.reserve(copy.size());
  const double n = static_cast<double>(copy.size());
  for (std::size_t i = 0; i < copy.size(); ++i) {
    cdf.emplace_back(copy[i], static_cast<double>(i + 1) / n);
  }
  return cdf;
}

}  // namespace osap
