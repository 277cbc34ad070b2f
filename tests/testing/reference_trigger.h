// The defaulting decision written out a second time, for tests only: the
// trigger of paper Section 2.5 over util's SlidingWindowStats, and the
// defaulting latch and revocation rules on top of it. Nothing in src/
// runs this code - the library's one machine is core::SafetyObserve - so
// a change to SafetyObserve's arithmetic or thresholds shows up as a
// disagreement with this reference instead of moving both together.
// The two trigger modes are documented in core/trigger.h.
#pragma once

#include <cmath>
#include <cstddef>

#include "core/safety_core.h"
#include "util/stats.h"

namespace osap::testing {

class DefaultTrigger {
 public:
  explicit DefaultTrigger(core::TriggerConfig config)
      : config_(config), window_(config.k > 0 ? config.k : 1) {
    core::SafeAgentConfig checked;
    checked.trigger = config;
    core::ValidateSafeAgentConfig(checked);
  }

  /// Consumes one uncertainty score; returns true when the defaulting
  /// condition is met at this step.
  bool Update(double score) {
    bool uncertain = false;
    switch (config_.mode) {
      case core::TriggerMode::kBinary:
        uncertain = !(score < 0.5);  // NaN is uncertain
        break;
      case core::TriggerMode::kWindowVariance:
        // A window holding a non-finite value is uncertain even before
        // it fills (its variance reads +inf).
        window_.Push(score);
        uncertain = (window_.Full() || window_.Poisoned()) &&
                    window_.Variance() > config_.alpha;
        break;
    }
    consecutive_ = uncertain ? consecutive_ + 1 : 0;
    return consecutive_ >= config_.l;
  }

  /// Uncertain-step streak length so far.
  std::size_t ConsecutiveUncertain() const { return consecutive_; }
  /// Variance of the current score window.
  double WindowVariance() const { return window_.Variance(); }

  void Reset() {
    window_.Reset();
    consecutive_ = 0;
  }

  const core::TriggerConfig& config() const { return config_; }

 private:
  core::TriggerConfig config_;
  SlidingWindowStats window_;
  std::size_t consecutive_ = 0;
};

/// DefaultTrigger plus the documented defaulting rules: latch on a fired
/// trigger; under kRevocable, hand control back after revoke_after
/// consecutive steps on which the trigger neither fired nor has an open
/// uncertain streak. Step returns the fallback decision: defaulted, or a
/// step whose own score is not finite.
struct ReferenceMachine {
  explicit ReferenceMachine(const core::SafeAgentConfig& c)
      : config(c), trigger(c.trigger) {}

  bool Step(double score) {
    const bool fired = trigger.Update(score);
    if (!defaulted) {
      if (fired) {
        defaulted = true;
        default_step = steps;
        quiet = 0;
      }
    } else if (config.mode == core::DefaultingMode::kRevocable) {
      if (!fired && trigger.ConsecutiveUncertain() == 0) {
        if (++quiet >= config.revoke_after) {
          defaulted = false;
          quiet = 0;
        }
      } else {
        quiet = 0;
      }
    }
    ++steps;
    const bool fallback = defaulted || !std::isfinite(score);
    if (fallback) ++defaulted_steps;
    return fallback;
  }

  core::SafeAgentConfig config;
  DefaultTrigger trigger;
  bool defaulted = false;
  std::size_t quiet = 0;
  std::size_t steps = 0;
  std::size_t defaulted_steps = 0;  // fallback-answered steps
  std::size_t default_step = 0;
};

}  // namespace osap::testing
