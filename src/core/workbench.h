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
// test traces.
#pragma once

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "abr/abr_environment.h"
#include "core/calibration.h"
#include "core/ensemble_estimators.h"
#include "core/evaluation.h"
#include "core/novelty_detector.h"
#include "core/safe_agent.h"
#include "policies/pensieve_net.h"
#include "rl/a2c.h"
#include "rl/value_trainer.h"
#include "traces/dataset.h"
#include "util/thread_pool.h"

namespace osap::core {

/// Everything Figure 1-5 compares.
enum class Scheme {
  kPensieve = 0,          // vanilla learned policy (no safety assurance)
  kBufferBased = 1,       // the default policy by itself
  kRandom = 2,            // the naive baseline anchoring the score scale
  kNoveltyDetection = 3,  // Pensieve + U_S safety net ("ND")
  kAgentEnsemble = 4,     // Pensieve + U_pi safety net ("A-ensemble")
  kValueEnsemble = 5,     // Pensieve + U_V safety net ("V-ensemble")
};

std::string SchemeName(Scheme scheme);

/// The three safety-enhanced variants, in the paper's order.
std::vector<Scheme> SafetySchemes();

struct WorkbenchConfig {
  traces::DatasetConfig dataset;

  /// Video length in 48-chunk units for training episodes and evaluation
  /// sessions. The paper streams the 5x-concatenated (240-chunk) video;
  /// training on full-length sessions is also what makes the agent learn
  /// buffer management across multiple drain cycles.
  std::size_t train_video_repeats = 5;
  std::size_t eval_video_repeats = 5;

  policies::PensieveNetConfig net;
  rl::A2cConfig a2c;
  rl::ValueTrainConfig value_train;

  std::size_t ensemble_size = 5;
  std::size_t ensemble_discard = 2;

  std::size_t nd_window = 10;
  std::size_t nd_k_empirical = 5;
  std::size_t nd_k_synthetic = 30;
  double nd_nu = 0.05;

  /// Trigger parameters (paper Section 3.1): l consecutive uncertain
  /// steps; k-step variance window for the continuous signals.
  std::size_t trigger_l = 3;
  std::size_t trigger_k = 5;

  CalibrationConfig calibration;

  std::filesystem::path cache_dir = "osap_cache";
  bool use_cache = true;
  std::uint64_t seed = 7;

  /// Worker-thread budget for per-trace evaluation rollouts, per-member
  /// ensemble training, ND feature collection, and calibration. 0 =
  /// hardware concurrency; 1 reproduces the serial path. The budget caps
  /// the process-wide shared pool (util::ThreadPool::Shared()) per call
  /// rather than sizing a private pool. Results are bit-identical at
  /// every setting (see DESIGN.md "Threading model"), so this
  /// deliberately does NOT enter CacheKey().
  std::size_t threads = 0;
};

/// A WorkbenchConfig sized for unit/integration tests: tiny nets, few
/// episodes, few traces. Behavioural shape is preserved; wall-time is not.
WorkbenchConfig FastWorkbenchConfig();

/// Per-training-distribution artifacts.
struct TrainedBundle {
  traces::DatasetId id{};
  std::vector<std::shared_ptr<nn::ActorCriticNet>> agents;
  std::vector<std::shared_ptr<nn::CompositeNet>> value_nets;
  std::shared_ptr<NoveltyDetector> novelty;
  double alpha_pi = 0.0;
  double alpha_v = 0.0;
  /// ND scheme's in-distribution (validation) QoE - the calibration target.
  double nd_in_dist_qoe = 0.0;
};

class Workbench {
 public:
  explicit Workbench(WorkbenchConfig config = {});

  const WorkbenchConfig& config() const { return config_; }

  /// Digest of every behaviour-affecting config field; names the cache
  /// directory so stale caches are never reused.
  std::string CacheKey() const;

  /// Lazily builds and memoizes a dataset / trained bundle.
  const traces::Dataset& DatasetFor(traces::DatasetId id);
  const TrainedBundle& BundleFor(traces::DatasetId id);

  /// The serving start-up path: loads from a complete cache exactly the
  /// artifacts `scheme` (a safety scheme) serves -
  ///   kNoveltyDetection: the deployed agent and the OC-SVM;
  ///   kAgentEnsemble:    every agent and alpha_pi;
  ///   kValueEnsemble:    the deployed agent, the value nets and alpha_v.
  /// Never trains and never memoizes, so a later BundleFor still builds
  /// the full bundle. Empty when the cache is off or any served file is
  /// missing or unreadable; the caller then falls back to BundleFor.
  std::optional<TrainedBundle> LoadServedArtifacts(traces::DatasetId id,
                                                   Scheme scheme) const;

  /// Evaluates a scheme trained on `train` against `test`'s held-out test
  /// traces (memoized). Baseline schemes ignore `train`.
  const EvalResult& Evaluate(Scheme scheme, traces::DatasetId train,
                             traces::DatasetId test);

  /// Paper-normalized mean score on `test`: 0 = Random, 1 = BB.
  double NormalizedMean(Scheme scheme, traces::DatasetId train,
                        traces::DatasetId test);

  /// Per-trace normalized scores (for CDFs); trace-wise normalization
  /// uses the per-dataset mean Random/BB QoE.
  std::vector<double> NormalizedPerTrace(Scheme scheme,
                                         traces::DatasetId train,
                                         traces::DatasetId test);

  /// Fresh evaluation environment (240-chunk video).
  abr::AbrEnvironment MakeEvalEnvironment() const;

  /// Fresh training environment (48-chunk video) pooled over the
  /// dataset's training traces.
  abr::AbrEnvironment MakeTrainEnvironment(traces::DatasetId id);

  /// Builds the policy a scheme evaluates with: baselines, vanilla
  /// Pensieve, or a SafeAgent wrapping Pensieve with the scheme's
  /// estimator and (calibrated) trigger.
  std::shared_ptr<mdp::Policy> MakePolicy(Scheme scheme,
                                          traces::DatasetId train);

  /// The deployed trigger of a safety scheme: l / k from the config, the
  /// binary trigger for ND, the bundle's calibrated alpha for U_pi / U_V
  /// (permanent defaulting).
  SafeAgentConfig TriggerFor(Scheme scheme, const TrainedBundle& bundle) const;

  const abr::VideoSpec& eval_video() const { return eval_video_; }
  const abr::AbrStateLayout& layout() const { return layout_; }

 private:
  WorkbenchConfig config_;
  abr::VideoSpec train_video_;
  abr::VideoSpec eval_video_;
  abr::AbrStateLayout layout_;

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

  std::filesystem::path BundleDir(traces::DatasetId id) const;
  NoveltyDetectorConfig NdConfigFor(traces::DatasetId id) const;
  // Cache-load halves, shared by BundleFor and LoadServedArtifacts: each
  // fills its bundle field(s) from BundleDir and returns false when a
  // file is missing or unreadable (the field is then left for the caller
  // to rebuild). LoadAgents reads members 0..count-1.
  bool LoadAgents(TrainedBundle& bundle, std::size_t count) const;
  bool LoadValueNets(TrainedBundle& bundle) const;
  bool LoadNoveltyDetector(TrainedBundle& bundle) const;
  bool LoadThresholds(TrainedBundle& bundle) const;
  void TrainOrLoadAgents(TrainedBundle& bundle);
  void TrainOrLoadValueNets(TrainedBundle& bundle);
  void FitOrLoadNoveltyDetector(TrainedBundle& bundle);
  void CalibrateOrLoadThresholds(TrainedBundle& bundle);

  std::shared_ptr<mdp::Policy> MakeGreedyPensieve(
      const TrainedBundle& bundle) const;
  std::shared_ptr<mdp::Policy> MakeBufferBased() const;
};

}  // namespace osap::core
