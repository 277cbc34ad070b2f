// Full re-evaluation calibration: the test oracle the replay bisection
// (core/replay_calibration.h) is pinned against. Every QoE probe builds a
// SafeAgent at the candidate threshold and streams it over every
// validation trace - no recording, no suffix replay - so it is slow and
// obviously right, and the production search must match it bit for bit.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <utility>

#include "abr/abr_environment.h"
#include "core/calibration.h"
#include "core/ensemble_estimators.h"
#include "core/evaluation.h"
#include "core/novelty_detector.h"
#include "core/safe_agent.h"
#include "core/workbench.h"

namespace osap::testing {

class FullReEvaluation {
 public:
  using PolicyFactory = std::function<std::shared_ptr<mdp::Policy>()>;

  /// `make_learned` / `make_fallback` build the deployed and default
  /// policies afresh for every probe; `traces` must outlive the oracle.
  FullReEvaluation(PolicyFactory make_learned, PolicyFactory make_fallback,
                   abr::AbrEnvironment env,
                   std::span<const traces::Trace> traces, std::size_t k,
                   std::size_t l)
      : make_learned_(std::move(make_learned)),
        make_fallback_(std::move(make_fallback)),
        env_(std::move(env)),
        traces_(traces),
        k_(k),
        l_(l) {}

  /// Mean QoE under the (k, l) window-variance trigger at `alpha`.
  double QoeAt(std::shared_ptr<core::UncertaintyEstimator> estimator,
               double alpha) {
    return MeanQoe(std::move(estimator), core::TriggerMode::kWindowVariance,
                   alpha);
  }

  /// Mean QoE under the paper's binary trigger (l consecutive flags): the
  /// ND scheme's in-distribution QoE, the calibration target.
  double BinaryTriggerQoe(
      std::shared_ptr<core::UncertaintyEstimator> estimator) {
    return MeanQoe(std::move(estimator), core::TriggerMode::kBinary, 0.0);
  }

  /// CalibrateAlpha over [0, 1.25 * MaxWindowVariance] with every probe a
  /// full re-evaluation; alpha 0 when the signal never varies.
  core::CalibrationResult Calibrate(
      const std::shared_ptr<core::UncertaintyEstimator>& estimator,
      double target_qoe, const core::CalibrationConfig& config) {
    auto learned = make_learned_();
    const double hi =
        core::MaxWindowVariance(*estimator, *learned, env_, traces_, k_);
    if (hi <= 0.0) return {};
    return core::CalibrateAlpha(
        [&](double alpha) { return QoeAt(estimator, alpha); }, target_qoe,
        0.0, hi * 1.25, config);
  }

 private:
  double MeanQoe(std::shared_ptr<core::UncertaintyEstimator> estimator,
                 core::TriggerMode mode, double alpha) {
    core::SafeAgentConfig cfg;
    cfg.trigger.mode = mode;
    cfg.trigger.k = k_;
    cfg.trigger.l = l_;
    cfg.trigger.alpha = alpha;
    core::SafeAgent agent(make_learned_(), make_fallback_(),
                          std::move(estimator), cfg);
    return core::EvaluatePolicy(agent, env_, traces_).MeanQoe();
  }

  PolicyFactory make_learned_;
  PolicyFactory make_fallback_;
  abr::AbrEnvironment env_;
  std::span<const traces::Trace> traces_;
  std::size_t k_;
  std::size_t l_;
};

/// What Workbench::CalibrateOrLoadThresholds stores in a bundle.
struct Thresholds {
  double nd_in_dist_qoe = 0.0;
  double alpha_pi = 0.0;
  double alpha_v = 0.0;
};

/// The workbench's threshold calibration for `id`, recomputed by full
/// re-evaluation from the bundle's trained agents, value nets and novelty
/// detector on the dataset's validation traces.
inline Thresholds FullReEvaluationThresholds(core::Workbench& bench,
                                             traces::DatasetId id) {
  const core::TrainedBundle& bundle = bench.BundleFor(id);
  const core::WorkbenchConfig& cfg = bench.config();
  FullReEvaluation full(
      [&] { return bench.MakePolicy(core::Scheme::kPensieve, id); },
      [&] { return bench.MakePolicy(core::Scheme::kBufferBased, id); },
      bench.MakeEvalEnvironment(), bench.DatasetFor(id).validation,
      cfg.trigger_k, cfg.trigger_l);
  Thresholds t;
  t.nd_in_dist_qoe = full.BinaryTriggerQoe(
      std::make_shared<core::NoveltyDetector>(*bundle.novelty));
  t.alpha_pi = full.Calibrate(std::make_shared<core::AgentEnsembleEstimator>(
                                  bundle.agents, cfg.ensemble_discard),
                              t.nd_in_dist_qoe, cfg.calibration)
                   .alpha;
  t.alpha_v = full.Calibrate(std::make_shared<core::ValueEnsembleEstimator>(
                                 bundle.value_nets, cfg.ensemble_discard),
                             t.nd_in_dist_qoe, cfg.calibration)
                  .alpha;
  return t;
}

}  // namespace osap::testing
