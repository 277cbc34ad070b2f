// The defaulting trigger's configuration (paper Section 2.5): how the
// per-step uncertainty score becomes the decision to abandon the learned
// policy. core::SafetyObserve (safety_core.h) runs it.
//
// Two thresholding modes cover the paper's schemes:
//  - kBinary (U_S): a step is uncertain when the score is 1 (the OC-SVM
//    says out-of-distribution); the trigger fires after l consecutive
//    uncertain steps (paper: l = 3).
//  - kWindowVariance (U_pi / U_V): the score is pushed into a sliding
//    window of the last k steps (paper: k = 5); a step is uncertain when
//    the window variance exceeds alpha; the trigger fires after l
//    consecutive uncertain steps. alpha is set by calibration
//    (calibration.h).
#pragma once

#include <cstddef>

namespace osap::core {

enum class TriggerMode {
  kBinary,
  kWindowVariance,
};

struct TriggerConfig {
  TriggerMode mode = TriggerMode::kBinary;
  /// Sliding-window length for kWindowVariance.
  std::size_t k = 5;
  /// Consecutive uncertain steps required to fire.
  std::size_t l = 3;
  /// Variance threshold for kWindowVariance (ignored by kBinary).
  double alpha = 0.0;
};

}  // namespace osap::core
