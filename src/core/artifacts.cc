#include "core/artifacts.h"

#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "nn/serialize.h"
#include "util/check.h"
#include "util/logging.h"

namespace osap::core {

namespace {

/// FNV-1a, over the config's behaviour-affecting fields in KeyOf.
std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string KeyOf(const WorkbenchConfig& config) {
  std::ostringstream os;
  os << config.dataset.trace_count << '|'
     << config.dataset.trace_duration_seconds << '|'
     << config.dataset.seed << '|' << config.train_video_repeats << '|'
     << config.eval_video_repeats << '|' << config.net.conv_filters << '|'
     << config.net.conv_kernel << '|' << config.net.hidden << '|'
     << config.a2c.episodes << '|' << config.a2c.gamma << '|'
     << config.a2c.actor_learning_rate << '|'
     << config.a2c.critic_learning_rate << '|'
     << config.a2c.entropy_coef_start << '|'
     << config.a2c.entropy_coef_end << '|'
     << config.value_train.rollout_episodes << '|'
     << config.value_train.epochs << '|' << config.ensemble_size << '|'
     << config.ensemble_discard << '|' << config.nd_window << '|'
     << config.nd_k_empirical << '|' << config.nd_k_synthetic << '|'
     << config.nd_nu << '|' << config.trigger_l << '|'
     << config.trigger_k << '|' << config.seed << "|sel1";
  // Training-schedule switches append only when enabled, so every
  // previously-cached bundle keeps its key.
  if (config.a2c.rollouts_per_update > 1) {
    os << "|rpu" << config.a2c.rollouts_per_update;
  }
  if (config.value_train.parallel_collection) os << "|pvc1";
  std::ostringstream key;
  key << std::hex << Fnv1a(os.str());
  return key.str();
}

/// Shared shape of every cache load: false without a word when a file is
/// absent (nothing cached yet), false with a warning when one is present
/// but unreadable, true when `load` read everything.
template <typename Load>
bool LoadCached(traces::DatasetId id, const char* what,
                const std::vector<std::filesystem::path>& files, Load load) {
  for (const auto& file : files) {
    if (!std::filesystem::exists(file)) return false;
  }
  try {
    load();
  } catch (const std::exception& e) {
    OSAP_LOG(kWarn) << "[" << traces::DatasetName(id) << "] " << what
                    << " cache unusable (" << e.what() << ")";
    return false;
  }
  OSAP_LOG(kInfo) << "[" << traces::DatasetName(id) << "] loaded " << what
                  << " from cache";
  return true;
}

}  // namespace

std::string SchemeName(Scheme scheme) {
  static const char* const kNames[] = {"pensieve",   "buffer_based",
                                       "random",     "nd",
                                       "a_ensemble", "v_ensemble"};
  const auto i = static_cast<std::size_t>(scheme);
  OSAP_CHECK_MSG(i < std::size(kNames), "SchemeName: unknown scheme");
  return kNames[i];
}

std::vector<Scheme> SafetySchemes() {
  return {Scheme::kNoveltyDetection, Scheme::kAgentEnsemble,
          Scheme::kValueEnsemble};
}

WorkbenchConfig FastWorkbenchConfig() {
  WorkbenchConfig cfg;
  cfg.dataset.trace_count = 12;
  cfg.dataset.trace_duration_seconds = 200.0;
  cfg.train_video_repeats = 1;
  cfg.eval_video_repeats = 1;
  cfg.net.conv_filters = 8;
  cfg.net.hidden = 16;
  cfg.a2c.episodes = 30;
  cfg.value_train.rollout_episodes = 6;
  cfg.value_train.epochs = 5;
  cfg.ensemble_size = 3;
  cfg.ensemble_discard = 1;
  cfg.nd_window = 5;
  cfg.nd_k_empirical = 3;
  cfg.nd_k_synthetic = 5;
  cfg.calibration.max_iterations = 5;
  cfg.use_cache = false;
  return cfg;
}

ArtifactCache::ArtifactCache(WorkbenchConfig config)
    : config_(std::move(config)),
      eval_video_(abr::MakeEnvivioLikeVideo(config_.eval_video_repeats)),
      key_(KeyOf(config_)) {
  layout_.levels = eval_video_.LevelCount();
}

abr::AbrEnvironment ArtifactCache::MakeEvalEnvironment() const {
  abr::AbrEnvironmentConfig cfg;
  cfg.layout = layout_;
  return abr::AbrEnvironment(eval_video_, cfg);
}

std::filesystem::path ArtifactCache::BundleDir(traces::DatasetId id) const {
  return config_.cache_dir / key_ / traces::DatasetName(id);
}

std::vector<std::filesystem::path> ArtifactCache::MemberFiles(
    traces::DatasetId id, const char* kind, std::size_t count) const {
  std::vector<std::filesystem::path> files;
  for (std::size_t m = 0; m < count; ++m) {
    files.push_back(BundleDir(id) /
                    (std::string(kind) + "_" + std::to_string(m) + ".bin"));
  }
  return files;
}

NoveltyDetectorConfig ArtifactCache::NdConfigFor(traces::DatasetId id) const {
  NoveltyDetectorConfig cfg;
  cfg.throughput_window = config_.nd_window;
  cfg.k = traces::IsSyntheticIid(id) ? config_.nd_k_synthetic
                                     : config_.nd_k_empirical;
  cfg.svm.nu = config_.nd_nu;
  return cfg;
}

bool ArtifactCache::LoadAgents(TrainedBundle& bundle,
                               std::size_t count) const {
  const auto files = MemberFiles(bundle.id, "agent", count);
  // Rebuild the topologies and overwrite the weights from the cache.
  return LoadCached(bundle.id, "agents", files, [&] {
    Rng dummy(0);
    for (const auto& file : files) {
      auto net = std::make_shared<nn::ActorCriticNet>(
          policies::MakePensieveActorCritic(layout_, config_.net, dummy));
      nn::LoadParamsFromFile(file, net->AllParams());
      bundle.agents.push_back(std::move(net));
    }
  });
}

bool ArtifactCache::LoadValueNets(TrainedBundle& bundle) const {
  const auto files = MemberFiles(bundle.id, "value", config_.ensemble_size);
  return LoadCached(bundle.id, "value ensemble", files, [&] {
    Rng dummy(0);
    for (const auto& file : files) {
      auto net = std::make_shared<nn::CompositeNet>(
          policies::BuildPensieveNet(layout_, 1, config_.net, dummy));
      nn::LoadParamsFromFile(file, net->Params());
      bundle.value_nets.push_back(std::move(net));
    }
  });
}

bool ArtifactCache::LoadNoveltyDetector(TrainedBundle& bundle) const {
  const auto path = BundleDir(bundle.id) / "ocsvm.bin";
  bundle.novelty =
      std::make_shared<NoveltyDetector>(NdConfigFor(bundle.id), layout_);
  return LoadCached(bundle.id, "OC-SVM", {path},
                    [&] { bundle.novelty->LoadModel(path); });
}

bool ArtifactCache::LoadThresholds(TrainedBundle& bundle) const {
  const auto path = BundleDir(bundle.id) / "calibration.txt";
  return LoadCached(bundle.id, "calibration", {path}, [&] {
    std::ifstream in(path);
    if (!(in >> bundle.nd_in_dist_qoe >> bundle.alpha_pi >> bundle.alpha_v)) {
      throw std::runtime_error("expected three numbers");
    }
  });
}

std::optional<TrainedBundle> ArtifactCache::LoadServedArtifacts(
    traces::DatasetId id, Scheme scheme) const {
  if (!config_.use_cache) return std::nullopt;
  TrainedBundle bundle;
  bundle.id = id;
  bool loaded = false;
  switch (scheme) {
    case Scheme::kNoveltyDetection:
      loaded = LoadAgents(bundle, 1) && LoadNoveltyDetector(bundle);
      break;
    case Scheme::kAgentEnsemble:
      loaded = LoadAgents(bundle, config_.ensemble_size) &&
               LoadThresholds(bundle);
      break;
    case Scheme::kValueEnsemble:
      loaded = LoadAgents(bundle, 1) && LoadValueNets(bundle) &&
               LoadThresholds(bundle);
      break;
    default:
      OSAP_CHECK_MSG(false, "LoadServedArtifacts: not a safety scheme");
  }
  return loaded ? std::optional(std::move(bundle)) : std::nullopt;
}

SafeAgentConfig ArtifactCache::TriggerFor(Scheme scheme,
                                          const TrainedBundle& bundle) const {
  SafeAgentConfig cfg;
  cfg.trigger.l = config_.trigger_l;
  cfg.trigger.k = config_.trigger_k;
  cfg.trigger.mode = TriggerMode::kWindowVariance;
  switch (scheme) {
    case Scheme::kNoveltyDetection:
      cfg.trigger.mode = TriggerMode::kBinary;
      break;
    case Scheme::kAgentEnsemble:
      cfg.trigger.alpha = bundle.alpha_pi;
      break;
    case Scheme::kValueEnsemble:
      cfg.trigger.alpha = bundle.alpha_v;
      break;
    default:
      OSAP_CHECK_MSG(false, "TriggerFor: not a safety scheme");
  }
  return cfg;
}

}  // namespace osap::core
