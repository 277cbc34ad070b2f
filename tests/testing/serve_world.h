// The one small trained world the serving, edge and oracle tests share:
// a Pensieve agent ensemble (member 0 is the deployed actor), a value-net
// ensemble, a novelty detector (throughput window 3, k 2) fitted on
// in-distribution throughput, and a trace pool alternating
// in-distribution (Norway 3G) and out-of-distribution (Belgium 4G)
// traces. The nets are small and untrained: the tests pin decision-path
// properties (bit-identity, framing, admission), not estimator quality.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/uncertainty.h"
#include "serve/serving_model.h"  // the video, layout, nets and configs
#include "traces/trace.h"

namespace osap::testing {

inline constexpr std::size_t kWorldDiscard = 1;
inline constexpr std::size_t kWorldTriggerL = 2;
inline constexpr std::size_t kWorldTriggerK = 4;
inline constexpr std::size_t kWorldRevokeAfter = 3;

struct ServeWorld {
  abr::AbrStateLayout layout;
  abr::VideoSpec video = abr::MakeEnvivioLikeVideo(1);
  std::vector<std::shared_ptr<nn::ActorCriticNet>> agents;
  std::vector<std::shared_ptr<nn::CompositeNet>> value_nets;
  std::shared_ptr<core::NoveltyDetector> novelty;
  std::vector<traces::Trace> traces;  // even = ID (Norway), odd = OOD
  double alpha_pi = 0.0;
  double alpha_v = 0.0;
};

/// Built once per process.
const ServeWorld& SharedServeWorld();

/// l = 2, k = 4, revoke_after = 3; the binary trigger for U_S, the
/// variance trigger at the world's calibrated alpha for U_pi / U_V.
core::SafeAgentConfig ConfigFor(const ServeWorld& w, serve::Signal signal,
                                core::DefaultingMode mode);

std::shared_ptr<const serve::ServingModel> ModelFor(
    const ServeWorld& w, serve::Signal signal, core::DefaultingMode mode);

/// A fresh sequential estimator for `signal` (U_S: a reset copy of the
/// fitted detector).
std::shared_ptr<core::UncertaintyEstimator> MakeEstimator(
    const ServeWorld& w, serve::Signal signal);

/// "NoveltyPermanent", "ValueEnsembleRevocable", ...: test-name suffixes.
std::string SignalModeName(serve::Signal signal, core::DefaultingMode mode);

}  // namespace osap::testing
