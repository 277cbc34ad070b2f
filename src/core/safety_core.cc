#include "core/safety_core.h"

#include "util/check.h"

namespace osap::core {

void ValidateSafeAgentConfig(const SafeAgentConfig& config) {
  OSAP_REQUIRE(config.trigger.l >= 1, "SafeAgentConfig: l must be >= 1");
  if (config.trigger.mode == TriggerMode::kWindowVariance) {
    OSAP_REQUIRE(config.trigger.k >= 2 &&
                     config.trigger.k <= kMaxWindowCapacity,
                 "SafeAgentConfig: variance mode needs k in [2, 65535]");
    OSAP_REQUIRE(config.trigger.alpha >= 0.0,
                 "SafeAgentConfig: alpha must be >= 0");
  }
  if (config.mode == DefaultingMode::kRevocable) {
    OSAP_REQUIRE(config.revoke_after >= 1,
                 "SafetyCore: revoke_after must be >= 1");
  }
}

SafetyCore::SafetyCore(const SafeAgentConfig& config)
    : config_(config), ring_(SafetyRingDoubles(config)) {
  ValidateSafeAgentConfig(config_);
}

void SafetyCore::Reset() {
  state_ = SafetyState{};
  cold_ = SafetyCold{};
  defaulted_steps_ = 0;
}

double SafetyCore::DefaultedFraction() const {
  if (state_.steps == 0) return 0.0;
  return static_cast<double>(defaulted_steps_) /
         static_cast<double>(state_.steps);
}

}  // namespace osap::core
