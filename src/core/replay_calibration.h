// Record-and-replay alpha calibration (paper Sections 2.5 / 3.1).
//
// CalibrateAlpha bisects the variance threshold alpha so the U_pi / U_V
// schemes match the ND scheme's in-distribution QoE. Evaluating one
// candidate alpha the direct way costs a full SafeAgent evaluation - every
// step runs the ensemble forward pass AND the learned policy's network -
// and the bisection pays that per iteration.
//
// Two structural facts make a cheaper scheme bit-identical:
//
// 1. With the permanent-defaulting SafeAgent, the trajectory is
//    *alpha-independent up to the first trigger step*. Until the trigger
//    fires, actions come from the (deterministic, stateless) greedy
//    learned policy, so states, uncertainty scores, and the trigger's
//    window variances are the same for every alpha; alpha only decides
//    WHERE the variance series first sustains l consecutive exceedances.
//
// 2. The no-default trajectory is also *estimator-independent*: the
//    driver never consults the estimator, so ANY estimator's score
//    series over the recording - including the stateful novelty
//    detector's, which is deterministic in the state sequence since its
//    last Reset - is exactly what a live safe session would have seen
//    before its first default. U_S, U_pi, and U_V all walk the SAME
//    states.
//
// So we roll out the no-default trajectory ONCE per validation trace -
// shared by every estimator being calibrated - recording actions,
// per-step rewards, per-step prefix reward sums, the observed states,
// and a per-step Env::ResumePoint (the environment's dynamic state only;
// far cheaper than copying whole environments, which drag immutable
// video/config tables along). ScoreWith(factory) then derives an
// estimator's score series by resetting a fresh instance per trace and
// scoring the recorded states in step order (via ScoreBatch, which the
// ensemble estimators fuse into weight-streaming batched inference), and
// its trigger-window variance series by pushing those scores through a
// real SlidingWindowStats (its variance comes from incremental sums, so
// the values are history-dependent and must repeat the same update
// sequence). Each candidate alpha then (a) finds its first trigger step T
// by scanning the scored series with the exact SafetyObserve trigger
// rule, and (b) resumes the session from resume point T under the
// fallback policy - only the post-default suffix is ever simulated, with
// no network inference at all. The prefix QoE is the recorded running sum
// at T (same additions in the same order), suffix rewards continue
// accumulating from it in step order, and per-trace means reduce in trace
// order, so the result is bit-identical to the full re-evaluation. The
// binary-trigger scan (MeanQoeAtBinaryTrigger) replays the ND scheme's
// fixed thresholding the same way, so the calibration TARGET comes from
// the recording too.
//
// Requirements:
//  - the estimator factory yields independent instances whose score
//    series is a deterministic function of the post-Reset state sequence
//    (each worker scores whole sessions on its own instance, so the
//    instances themselves need not be thread-safe);
//  - the learned policy is deterministic and stateless (greedy);
//  - SafeAgent runs in the permanent defaulting mode.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/uncertainty.h"
#include "mdp/environment.h"
#include "mdp/policy.h"
#include "traces/trace.h"
#include "util/check.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace osap::core {

/// One recorded no-default session: what the SafeAgent's pre-trigger
/// trajectory looks like for ANY alpha.
struct ReplaySession {
  std::vector<mdp::Action> actions;  // greedy learned action per step
  std::vector<double> rewards;       // reward per step
  /// Raw estimator score per step. Filled by CalibrationReplay::ScoreWith
  /// for the estimator under calibration.
  std::vector<double> scores;
  /// Trigger window variance after pushing step t's score (0 until the
  /// window is full; never compared before then). Filled by ScoreWith.
  std::vector<double> variances;
  /// reward_prefix[t] = rewards[0] + ... + rewards[t-1], accumulated
  /// sequentially in step order (so it equals the running QoE total a
  /// live session would hold entering step t). reward_prefix[0] = 0.
  std::vector<double> reward_prefix;
  /// Observed state entering each step (what the policies saw).
  std::vector<mdp::State> states;
  double total_qoe = 0.0;  // rewards summed in step order
};

inline constexpr std::size_t kReplayNoTrigger =
    std::numeric_limits<std::size_t>::max();

/// First step at which a window-variance trigger with threshold `alpha`
/// fires on the recorded series, or kReplayNoTrigger. Replicates
/// SafetyObserve's trigger exactly: uncertain once the k-window is full
/// and its variance exceeds alpha; fires after l consecutive uncertain
/// steps.
inline std::size_t FirstTriggerStep(const ReplaySession& session,
                                    double alpha, std::size_t k,
                                    std::size_t l) {
  std::size_t consecutive = 0;
  for (std::size_t t = 0; t < session.variances.size(); ++t) {
    const bool uncertain = t + 1 >= k && session.variances[t] > alpha;
    consecutive = uncertain ? consecutive + 1 : 0;
    if (consecutive >= l) return t;
  }
  return kReplayNoTrigger;
}

/// First step at which the binary trigger (TriggerMode::kBinary: a step
/// is uncertain when its score is >= 0.5, no window, no warm-up) fires on
/// the recorded score series, or kReplayNoTrigger.
inline std::size_t FirstBinaryTriggerStep(const ReplaySession& session,
                                          std::size_t l) {
  std::size_t consecutive = 0;
  for (std::size_t t = 0; t < session.scores.size(); ++t) {
    consecutive = session.scores[t] >= 0.5 ? consecutive + 1 : 0;
    if (consecutive >= l) return t;
  }
  return kReplayNoTrigger;
}

/// Records the no-default rollouts for a validation set once, then
/// answers MeanQoeAt(alpha) / MeanQoeAtBinaryTrigger() queries by
/// trigger-scan + suffix replay. The recording is estimator-independent;
/// call ScoreWith(factory) before the score-dependent queries (and again
/// to switch estimators over the same trajectories). `Env` needs
/// SetFixedTrace / Reset / Step, copy construction, and the
/// SaveResumePoint / RestoreResumePoint pair (AbrEnvironment).
template <typename Env>
class CalibrationReplay {
 public:
  using PolicyFactory = std::function<std::shared_ptr<mdp::Policy>()>;
  using EstimatorFactory =
      std::function<std::shared_ptr<UncertaintyEstimator>()>;
  using ResumePoint = typename Env::ResumePoint;

  /// Rolls out every trace under the learned policy, recording the
  /// trajectory (states, actions, rewards, prefix sums, resume points).
  /// Recording fans out over `pool` with per-thread env copy + driver.
  CalibrationReplay(const PolicyFactory& make_learned,
                    PolicyFactory make_fallback, const Env& env,
                    std::span<const traces::Trace> traces, std::size_t k,
                    std::size_t l, util::ThreadPool& pool,
                    util::ParallelOptions options = {})
      : make_fallback_(std::move(make_fallback)),
        env_(env),
        traces_(traces),
        k_(k),
        l_(l),
        pool_(pool),
        options_(options) {
    OSAP_REQUIRE(!traces.empty(), "CalibrationReplay: no traces");
    OSAP_REQUIRE(k >= 2, "CalibrationReplay: variance window needs k >= 2");
    OSAP_REQUIRE(l >= 1, "CalibrationReplay: l must be >= 1");
    if (options_.chunk == 0) options_.chunk = 1;  // whole-session items
    sessions_.resize(traces.size());
    snapshots_.resize(traces.size());
    struct alignas(64) WorkerScratch {
      std::shared_ptr<mdp::Policy> driver;
      std::optional<Env> env;
    };
    std::vector<WorkerScratch> scratch(pool.SlotCount());
    pool.ParallelFor(
        0, traces.size(),
        [&](std::size_t i) {
          WorkerScratch& ws = scratch[util::ThreadPool::CurrentSlot()];
          if (ws.driver == nullptr) {
            ws.driver = make_learned();
            OSAP_CHECK_MSG(ws.driver != nullptr,
                           "CalibrationReplay: null learned policy");
            ws.env.emplace(env);
          }
          sessions_[i] = Record(*ws.env, *ws.driver, traces[i], snapshots_[i]);
        },
        options_);
  }

  /// Scores every recorded state with a fresh estimator from `factory`
  /// and installs the per-step score and trigger-window variance series
  /// used by the trigger scans. Per trace: Reset the estimator, then
  /// score the states in step order via ScoreBatch (bit-identical to the
  /// Score calls SafeAgent::SelectAction would issue; the ensemble
  /// estimators fuse it into batched inference that streams each packed
  /// weight block once per 32 states instead of once per state), then
  /// push the scores through a fresh SlidingWindowStats for the variance
  /// series. Fans out per trace over the pool with one estimator
  /// instance per worker slot, so stateful estimators (the novelty
  /// detector) are safe without locking.
  void ScoreWith(const EstimatorFactory& factory) {
    struct alignas(64) WorkerScratch {
      std::shared_ptr<UncertaintyEstimator> estimator;
    };
    std::vector<WorkerScratch> scratch(pool_.SlotCount());
    pool_.ParallelFor(
        0, sessions_.size(),
        [&](std::size_t i) {
          WorkerScratch& ws = scratch[util::ThreadPool::CurrentSlot()];
          if (ws.estimator == nullptr) {
            ws.estimator = factory();
            OSAP_CHECK_MSG(ws.estimator != nullptr,
                           "CalibrationReplay: null estimator");
          }
          ReplaySession& session = sessions_[i];
          ws.estimator->Reset();
          session.scores.resize(session.states.size());
          ws.estimator->ScoreBatch(session.states, session.scores);
          SlidingWindowStats window(k_);
          session.variances.resize(session.states.size());
          for (std::size_t t = 0; t < session.states.size(); ++t) {
            window.Push(session.scores[t]);
            session.variances[t] = window.Full() ? window.Variance() : 0.0;
          }
        },
        options_);
    scored_ = true;
  }

  std::size_t SessionCount() const { return sessions_.size(); }
  const ReplaySession& Session(std::size_t i) const { return sessions_[i]; }

  /// Max full-window variance across every recorded step, floored at 0.
  /// Bit-identical to MaxWindowVariance over the same traces (same score
  /// sequence pushed through the same SlidingWindowStats).
  double MaxFullWindowVariance() const {
    OSAP_CHECK_MSG(scored_, "CalibrationReplay: call ScoreWith first");
    double max_variance = 0.0;
    for (const ReplaySession& s : sessions_) {
      for (std::size_t t = 0; t < s.variances.size(); ++t) {
        if (t + 1 >= k_ && s.variances[t] > max_variance) {
          max_variance = s.variances[t];
        }
      }
    }
    return max_variance;
  }

  /// Mean QoE the SafeAgent would attain at variance threshold `alpha`:
  /// bit-identical to a full EvaluatePolicy(...).MeanQoe() with a fresh
  /// SafeAgent, at environment-stepping cost (no network inference).
  /// Per-trace replays fan out over the pool.
  double MeanQoeAt(double alpha) {
    return MeanQoeWith([&](const ReplaySession& session) {
      return FirstTriggerStep(session, alpha, k_, l_);
    });
  }

  /// Mean QoE the SafeAgent would attain with the binary trigger (the ND
  /// scheme's fixed thresholding): bit-identical to the full evaluation
  /// the same way. This is the calibration TARGET, derived from the same
  /// recording the candidates replay against.
  double MeanQoeAtBinaryTrigger() {
    return MeanQoeWith([&](const ReplaySession& session) {
      return FirstBinaryTriggerStep(session, l_);
    });
  }

 private:
  /// One no-default rollout under the greedy learned policy. Purely
  /// trajectory: estimator scoring happens later in ScoreWith, over the
  /// states recorded here.
  ReplaySession Record(Env& env, mdp::Policy& driver,
                       const traces::Trace& trace,
                       std::vector<ResumePoint>& snapshots) const {
    ReplaySession session;
    snapshots.clear();
    env.SetFixedTrace(trace);
    driver.Reset();
    mdp::State state = env.Reset();
    bool done = false;
    while (!done) {
      // Resume point entering step t: exactly what a SafeAgent that
      // defaults on step t would resume from (the prefix actions already
      // applied).
      snapshots.push_back(env.SaveResumePoint());
      session.states.push_back(state);
      session.reward_prefix.push_back(session.total_qoe);
      const mdp::Action action = driver.SelectAction(state);
      mdp::StepResult step = env.Step(action);
      session.actions.push_back(action);
      session.rewards.push_back(step.reward);
      session.total_qoe += step.reward;
      state = std::move(step.next_state);
      done = step.done;
    }
    OSAP_CHECK_MSG(!session.actions.empty(),
                   "CalibrationReplay: empty session");
    return session;
  }

  /// Shared trigger-scan + suffix-replay loop: `first_trigger_of` maps a
  /// session to its firing step (or kReplayNoTrigger) for the trigger
  /// being evaluated.
  template <typename FirstTriggerFn>
  double MeanQoeWith(const FirstTriggerFn& first_trigger_of) {
    OSAP_CHECK_MSG(scored_, "CalibrationReplay: call ScoreWith first");
    std::vector<double> qoe(sessions_.size(), 0.0);
    struct alignas(64) WorkerScratch {
      std::shared_ptr<mdp::Policy> fallback;
      std::optional<Env> env;
    };
    std::vector<WorkerScratch> scratch(pool_.SlotCount());
    pool_.ParallelFor(
        0, sessions_.size(),
        [&](std::size_t i) {
          const std::size_t first = first_trigger_of(sessions_[i]);
          if (first == kReplayNoTrigger) {
            qoe[i] = sessions_[i].total_qoe;
            return;
          }
          WorkerScratch& ws = scratch[util::ThreadPool::CurrentSlot()];
          if (ws.fallback == nullptr) {
            ws.fallback = make_fallback_();
            OSAP_CHECK_MSG(ws.fallback != nullptr,
                           "CalibrationReplay: null fallback policy");
            ws.env.emplace(env_);
          }
          qoe[i] = ReplayQoe(sessions_[i], snapshots_[i][first], first,
                             *ws.fallback, *ws.env);
        },
        options_);
    return Mean(qoe);
  }

  /// Restores the resume point taken entering `first_trigger` into the
  /// worker's env and runs the fallback policy to the end (the SafeAgent
  /// switches policies on the firing step itself). The running total
  /// starts from the recorded prefix sum and suffix rewards accumulate in
  /// step order, matching Trajectory::TotalReward exactly.
  double ReplayQoe(const ReplaySession& session, const ResumePoint& resume,
                   std::size_t first_trigger, mdp::Policy& fallback,
                   Env& env) const {
    env.RestoreResumePoint(resume);
    fallback.Reset();
    double total = session.reward_prefix[first_trigger];
    mdp::State state = session.states[first_trigger];
    bool done = false;
    while (!done) {
      mdp::StepResult step = env.Step(fallback.SelectAction(state));
      total += step.reward;
      state = std::move(step.next_state);
      done = step.done;
    }
    return total;
  }

  PolicyFactory make_fallback_;
  Env env_;
  std::span<const traces::Trace> traces_;
  std::size_t k_;
  std::size_t l_;
  util::ThreadPool& pool_;
  util::ParallelOptions options_;
  std::vector<ReplaySession> sessions_;
  /// snapshots_[i][t]: env dynamic state entering step t of session i.
  /// The resume points hold non-owning trace pointers into `traces_`,
  /// which outlives this object by contract.
  std::vector<std::vector<ResumePoint>> snapshots_;
  bool scored_ = false;
};

}  // namespace osap::core
