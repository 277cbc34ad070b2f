// The experiment workbench: one object that owns everything needed to
// regenerate the paper's evaluation - datasets, trained agents, ensembles,
// fitted novelty detectors, calibrated thresholds - with an on-disk cache
// so that the per-figure bench binaries are cheap after the first run.
//
// The workbench reproduces the paper's pipeline per training distribution:
//   1. build the dataset (70/30 split, validation = 30% of train);
//   2. train an ensemble of 5 Pensieve agents (A2C; member 0 is "the"
//      deployed agent) on the training traces;
//   3. train an ensemble of 5 external value functions on experience from
//      the deployed agent;
//   4. fit the U_S OC-SVM on [mean, stddev] throughput-window features
//      from the deployed agent's training sessions (k = 5 empirical /
//      30 synthetic);
//   5. evaluate the ND scheme in-distribution (validation traces) and
//      calibrate the U_pi / U_V variance thresholds alpha to match it.
// Evaluation then runs any scheme against any test distribution's held-out
// test traces. Each step loads through the ArtifactCache the workbench
// extends and trains (and writes) only what the cache lacks.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "abr/abr_environment.h"
#include "core/artifacts.h"
#include "core/ensemble_estimators.h"
#include "core/evaluation.h"
#include "core/safe_agent.h"
#include "util/thread_pool.h"

namespace osap::core {

class Workbench : public ArtifactCache {
 public:
  explicit Workbench(WorkbenchConfig config = {});

  /// Lazily builds and memoizes a dataset / trained bundle.
  const traces::Dataset& DatasetFor(traces::DatasetId id);
  const TrainedBundle& BundleFor(traces::DatasetId id);

  /// Evaluates a scheme trained on `train` against `test`'s held-out test
  /// traces (memoized). Baseline schemes ignore `train`.
  const EvalResult& Evaluate(Scheme scheme, traces::DatasetId train,
                             traces::DatasetId test);

  /// Paper-normalized mean score on `test`: 0 = Random, 1 = BB.
  double NormalizedMean(Scheme scheme, traces::DatasetId train,
                        traces::DatasetId test);

  /// Fresh training environment (48-chunk video) pooled over the
  /// dataset's training traces.
  abr::AbrEnvironment MakeTrainEnvironment(traces::DatasetId id);

  /// Builds the policy a scheme evaluates with: baselines, vanilla
  /// Pensieve, or a SafeAgent wrapping Pensieve with the scheme's
  /// estimator and (calibrated) trigger.
  std::shared_ptr<mdp::Policy> MakePolicy(Scheme scheme,
                                          traces::DatasetId train);

 private:
  abr::VideoSpec train_video_;

  std::map<traces::DatasetId, traces::Dataset> datasets_;
  std::map<traces::DatasetId, TrainedBundle> bundles_;
  std::map<std::tuple<int, int, int>, EvalResult> eval_cache_;

  /// Total threads applied to parallel sections (>= 1).
  std::size_t ResolvedThreads() const;
  /// The process-wide shared pool; the thread budget is applied per call
  /// through EvalOptions(), not by sizing the pool.
  util::ThreadPool& Pool() const;
  /// ParallelFor options implementing the `threads` budget: at most
  /// ResolvedThreads() - 1 pool workers join the caller, one whole
  /// item (session / member) per claim.
  util::ParallelOptions EvalOptions() const;

  /// Thread-safe MakePolicy core: builds a policy for `scheme` from an
  /// already-materialized bundle without touching workbench caches.
  /// `bundle` may be null only for bundle-free schemes (BB, Random).
  std::shared_ptr<mdp::Policy> MakePolicyFromBundle(
      Scheme scheme, const TrainedBundle* bundle) const;

  void TrainOrLoadAgents(TrainedBundle& bundle);
  void TrainOrLoadValueNets(TrainedBundle& bundle);
  void FitOrLoadNoveltyDetector(TrainedBundle& bundle);
  void CalibrateOrLoadThresholds(TrainedBundle& bundle);

  std::shared_ptr<mdp::Policy> MakeGreedyPensieve(
      const TrainedBundle& bundle) const;
  std::shared_ptr<mdp::Policy> MakeBufferBased() const;
};

}  // namespace osap::core
