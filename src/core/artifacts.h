// The trained-artifact cache, one format with two callers: ArtifactCache
// reads <cache_dir>/<CacheKey()>/<dataset>/{agent_<m>.bin, value_<m>.bin,
// ocsvm.bin, calibration.txt} and the Workbench writes what it trains
// there. This translation unit references no trainer, so a binary that
// only serves from the cache (osap_serve) links none.
#pragma once

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "abr/abr_environment.h"
#include "core/calibration.h"
#include "core/novelty_detector.h"
#include "core/safety_core.h"
#include "nn/actor_critic_net.h"
#include "policies/pensieve_net.h"
#include "rl/a2c.h"
#include "rl/value_trainer.h"
#include "traces/dataset.h"

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

/// One config's view of the cache; the Workbench extends it with training.
class ArtifactCache {
 public:
  explicit ArtifactCache(WorkbenchConfig config);

  const WorkbenchConfig& config() const { return config_; }
  /// Digest of every behaviour-affecting config field, computed once;
  /// names the cache directory so stale caches are never reused.
  const std::string& CacheKey() const { return key_; }
  /// The video evaluation and served sessions stream and the state layout
  /// every net and environment is built for, derived here and only here.
  const abr::VideoSpec& eval_video() const { return eval_video_; }
  const abr::AbrStateLayout& layout() const { return layout_; }
  /// Fresh evaluation environment (240-chunk video).
  abr::AbrEnvironment MakeEvalEnvironment() const;

  std::filesystem::path BundleDir(traces::DatasetId id) const;
  /// BundleDir(id)/<kind>_<m>.bin for ensemble members m < count.
  std::vector<std::filesystem::path> MemberFiles(
      traces::DatasetId id, const char* kind, std::size_t count) const;
  NoveltyDetectorConfig NdConfigFor(traces::DatasetId id) const;

  // Per-artifact loaders: each fills its bundle field(s) and returns false
  // when a file is missing or unreadable (the field is then left for the
  // caller to rebuild). LoadAgents reads members 0..count-1.
  bool LoadAgents(TrainedBundle& bundle, std::size_t count) const;
  bool LoadValueNets(TrainedBundle& bundle) const;
  bool LoadNoveltyDetector(TrainedBundle& bundle) const;
  bool LoadThresholds(TrainedBundle& bundle) const;

  /// The serving start-up path: loads exactly what `scheme` (a safety
  /// scheme) serves - U_S the deployed agent and the OC-SVM, U_pi every
  /// agent and alpha_pi, U_V the deployed agent, the value nets and
  /// alpha_v - and never trains. Empty when the cache is off or a served
  /// file is missing or unreadable.
  std::optional<TrainedBundle> LoadServedArtifacts(traces::DatasetId id,
                                                   Scheme scheme) const;

  /// The deployed trigger of a safety scheme: l / k from the config, the
  /// binary trigger for ND, the bundle's calibrated alpha for U_pi / U_V
  /// (permanent defaulting).
  SafeAgentConfig TriggerFor(Scheme scheme, const TrainedBundle& bundle) const;

 protected:
  WorkbenchConfig config_;
  abr::VideoSpec eval_video_;
  abr::AbrStateLayout layout_;
  std::string key_;
};

}  // namespace osap::core
