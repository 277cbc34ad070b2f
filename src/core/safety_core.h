// SafetyCore: the per-session half of the SafeAgent split - the defaulting
// state machine (trigger, defaulted flag, revocation streak, step counters)
// with no policies or estimators attached. SafeAgent composes it behind
// mdp::Policy for the sequential loop; the serving path runs the same
// machine over dense per-shard arrays.
//
// The machine itself is the free function SafetyObserve over two PODs:
// SafetyState packs the hot fields an epoch scan touches (the trigger's
// util SlidingWindow + streaks, 40 bytes) and SafetyCold the fields only
// introspection reads. The variance trigger's score ring lives in
// caller-provided memory - SafetyCore gives it a private heap buffer, a
// serving shard packs all its sessions' rings into one contiguous array -
// so one session costs tens of bytes, not an allocation. Both callers run
// literally the same code, and the window arithmetic is the one
// SlidingWindow routine calibration also runs, which is how the service's
// batched decisions stay bit-identical to the sequential SafeAgent
// (pinned by equivalence tests) and replay calibration sees the same
// variances. A non-finite score fails closed (see SafetyObserve).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/trigger.h"
#include "util/stats.h"

namespace osap::core {

enum class DefaultingMode {
  kPermanent,  // paper behaviour: default for the rest of the session
  kRevocable,  // ablation: return to the learned policy when safe again
};

struct SafeAgentConfig {
  TriggerConfig trigger;
  DefaultingMode mode = DefaultingMode::kPermanent;
  /// kRevocable: consecutive non-firing, certain steps needed to revoke.
  std::size_t revoke_after = 15;
};

/// Validates a defaulting config (l >= 1; variance mode: k in [2,
/// kMaxWindowCapacity] and alpha >= 0; revocable: revoke_after >= 1). Throws
/// std::invalid_argument on violation. The SafetyCore constructor calls
/// it; callers that bypass SafetyCore (the serving path's dense tables)
/// call it themselves.
void ValidateSafeAgentConfig(const SafeAgentConfig& config);

/// Hot per-session defaulting state: everything one SafetyObserve step
/// reads and writes except the score ring. Plain data so a serving shard
/// keeps its sessions in one dense array (struct-of-arrays session
/// table); zero-initialization is the fresh-session state. How many steps
/// were answered from the fallback is SafetyCore's count, not a field
/// here: the serving path never reads it.
struct SafetyState {
  SlidingWindow window;              // variance trigger over the ring
  std::uint32_t consecutive = 0;     // uncertain-step streak
  std::uint32_t certain_streak = 0;  // kRevocable bookkeeping
  std::uint32_t steps = 0;           // decisions made this session
  bool defaulted = false;
};
static_assert(sizeof(SafetyState) == 40);

/// Cold per-session fields: written at most once per defaulting episode,
/// read only by introspection - split out so the epoch scan's cache lines
/// carry hot state only.
struct SafetyCold {
  std::uint32_t default_step = 0;  // step index the session defaulted at
};

/// Score-ring doubles SafetyObserve needs per session for `config`
/// (trigger.k for the variance trigger, 0 for the binary trigger - binary
/// U_S sessions pay no ring bytes at all).
inline std::size_t SafetyRingDoubles(const SafeAgentConfig& config) {
  return config.trigger.mode == TriggerMode::kWindowVariance
             ? config.trigger.k
             : 0;
}

/// One decision step of the defaulting state machine: feeds `score`
/// through the trigger (trigger.h semantics, with the sliding window
/// living in `ring`) and the defaulting/revocation logic.
/// The threshold is the config's own: the fixed 0.5 score cut for the
/// binary trigger, `config.trigger.alpha` (the replay bisection's frozen
/// alpha) for the variance trigger. `ring` must hold
/// SafetyRingDoubles(config) doubles (may be null for the binary
/// trigger). Returns true when this step's action must come from the
/// default policy. `config` must be validated.
///
/// Fails closed on non-finite scores: NaN counts as uncertain for the
/// binary cut; in the variance window a non-finite score (or one whose
/// square overflows) makes every step it stays in the window uncertain,
/// even before the window has filled; and a step whose own score is not
/// finite is answered from the default policy whether or not the trigger
/// fires.
inline bool SafetyObserve(const SafeAgentConfig& config, SafetyState& state,
                          SafetyCold& cold, double* ring, double score) {
  bool uncertain = false;
  switch (config.trigger.mode) {
    case TriggerMode::kBinary:
      uncertain = !(score < 0.5);
      break;
    case TriggerMode::kWindowVariance: {
      const std::span<double> window(ring, config.trigger.k);
      state.window.Push(window, score);
      // Not uncertain until the window is populated (variance over a
      // partial window would compare incomparable quantities), unless
      // it holds a non-finite value.
      if (state.window.size == window.size() || state.window.Poisoned()) {
        uncertain = state.window.Variance() > config.trigger.alpha;
      }
      break;
    }
  }
  state.consecutive = uncertain ? state.consecutive + 1 : 0;
  const bool fired = state.consecutive >= config.trigger.l;

  // Defaulting half: replicates SafetyCore::Observe.
  if (!state.defaulted) {
    if (fired) {
      state.defaulted = true;
      cold.default_step = state.steps;
      state.certain_streak = 0;
    }
  } else if (config.mode == DefaultingMode::kRevocable) {
    // Revoke after a sustained quiet period: the trigger must not fire
    // and the uncertain-streak must be clear.
    if (!fired && state.consecutive == 0) {
      ++state.certain_streak;
      if (state.certain_streak >= config.revoke_after) {
        state.defaulted = false;
        state.certain_streak = 0;
      }
    } else {
      state.certain_streak = 0;
    }
  }

  ++state.steps;
  return state.defaulted || !std::isfinite(score);
}

/// The defaulted-session short cut both decision paths take before any
/// scoring work: in kPermanent mode a defaulted session answers from the
/// default policy for the rest of its life, so its score can never
/// change a decision again. When `mode == kPermanent && state.defaulted`
/// this counts the step (exactly as SafetyObserve would) and returns
/// true - the caller answers from the
/// fallback and skips the estimator and the trigger.
/// Otherwise it touches nothing and returns false, and the caller takes
/// the full SafetyObserve path (kRevocable always does: revocation needs
/// the quiet streak). Skipping leaves the trigger window stale, which
/// nothing reads once a permanent default has happened.
inline bool SafetyStepDefaulted(const SafeAgentConfig& config,
                                SafetyState& state) {
  if (config.mode != DefaultingMode::kPermanent || !state.defaulted) {
    return false;
  }
  ++state.steps;
  return true;
}

class SafetyCore {
 public:
  explicit SafetyCore(const SafeAgentConfig& config);

  /// One decision step: feeds this step's uncertainty score through the
  /// trigger and the defaulting/revocation state machine. Returns true
  /// when this step's action must come from the default policy.
  bool Observe(double score) {
    const bool fallback =
        SafetyObserve(config_, state_, cold_, ring_.data(), score);
    defaulted_steps_ += fallback;
    return fallback;
  }

  /// SafetyStepDefaulted on this session: true (step counted) when a
  /// kPermanent session has defaulted and needs no score this step.
  bool StepDefaulted() {
    const bool fallback = SafetyStepDefaulted(config_, state_);
    defaulted_steps_ += fallback;
    return fallback;
  }

  void Reset();

  /// True while actions come from the default policy.
  bool Defaulted() const { return state_.defaulted; }

  /// Steps observed in the current session (decisions made).
  std::size_t StepCount() const { return state_.steps; }

  /// Step index at which the session defaulted (meaningful when
  /// Defaulted() has ever been true this session; 0 otherwise).
  std::size_t DefaultStep() const { return cold_.default_step; }

  /// Decisions of this session made by the default policy.
  std::size_t DefaultedSteps() const { return defaulted_steps_; }

  /// Fraction of this session's decisions made by the default policy.
  double DefaultedFraction() const;

 private:
  SafeAgentConfig config_;
  std::vector<double> ring_;  // variance-trigger score window (k doubles)
  SafetyState state_;
  SafetyCold cold_;
  std::size_t defaulted_steps_ = 0;
};

}  // namespace osap::core
