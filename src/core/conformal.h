// Streaming conformal threshold (DESIGN.md §11; "Safe, OOD-Adaptive
// MPC with Conformalized Neural Network Ensembles", PAPERS.md).
//
// The offline bisection (calibration.h) freezes alpha at deploy time.
// StreamingConformal is the O(1)-per-decision online arm: the same
// trigger statistic the live compare uses (full-window variance, or the
// raw score for binary triggers) feeds a windowed P² sketch, and the
// threshold is the sketch's (1-epsilon)-quantile — re-read at epoch
// boundaries, so it tracks gradual drift the frozen offline alpha
// cannot. serve::DecisionService shards this: one sketch per shard
// lane, merged via P2Quantile::MergedQuantile into a process-wide
// snapshot (DESIGN.md §11).
#pragma once

#include <cstddef>

#include "util/p2_quantile.h"

namespace osap::core {

/// O(1)-per-decision streaming arm: trigger statistics feed a windowed
/// P² sketch at quantile (1 - miscoverage); RefreshAlpha() re-reads the
/// sketch into the live threshold. Coverage counters compare each
/// observation against the threshold that was live when it arrived, so
/// EmpiricalMiscoverage() is the online miscoverage estimate the
/// coverage tests pin. Single-threaded; the sharded serving arrangement
/// lives in serve::DecisionService.
class StreamingConformal {
 public:
  /// `window`: observations per sketch generation (the estimator
  /// reflects the last window..2*window statistics). `initial_alpha`
  /// is served until the first RefreshAlpha() with a non-empty sketch.
  StreamingConformal(double miscoverage, std::size_t window,
                     double initial_alpha);

  /// Records one trigger statistic: O(1) sketch update + coverage
  /// count against the currently live threshold.
  void Observe(double statistic);

  /// Recomputes the live threshold from the sketch (no-op while the
  /// sketch is empty). Returns the threshold now live.
  double RefreshAlpha();

  double Alpha() const { return alpha_; }
  double Miscoverage() const { return miscoverage_; }
  std::size_t Observations() const { return observations_; }
  std::size_t Exceedances() const { return exceedances_; }

  /// Fraction of observed statistics that exceeded the live threshold;
  /// tracks `miscoverage` once the sketch has warmed up.
  double EmpiricalMiscoverage() const {
    return observations_ == 0
               ? 0.0
               : static_cast<double>(exceedances_) /
                     static_cast<double>(observations_);
  }

  const util::WindowedP2Quantile& Sketch() const { return sketch_; }

 private:
  util::WindowedP2Quantile sketch_;
  double miscoverage_;
  double alpha_;
  std::size_t observations_ = 0;
  std::size_t exceedances_ = 0;
};

}  // namespace osap::core
