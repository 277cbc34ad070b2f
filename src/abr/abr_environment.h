// MDP adapter over the ABR simulator: actions are ladder levels for the
// next chunk, observations are the Pensieve state encoding, rewards are the
// per-chunk linear QoE terms. One episode = one full video over one trace.
//
// For training, the environment can hold a pool of traces and pick one
// uniformly at random per episode (Pensieve's training setup); for
// evaluation it replays a fixed trace deterministically.
#pragma once

#include <span>
#include <vector>

#include "abr/qoe.h"
#include "abr/simulator.h"
#include "abr/state.h"
#include "abr/video.h"
#include "mdp/environment.h"
#include "traces/trace.h"
#include "util/rng.h"

namespace osap::abr {

struct AbrEnvironmentConfig {
  SimulatorConfig simulator;
  QoeConfig qoe;
  AbrStateLayout layout;
};

class AbrEnvironment final : public mdp::Environment {
 public:
  /// The video is copied; the layout's `levels` must match its ladder.
  AbrEnvironment(VideoSpec video, AbrEnvironmentConfig config = {});

  /// Training mode: Reset() picks a trace uniformly from the pool.
  /// The traces must outlive the environment.
  void SetTracePool(std::span<const traces::Trace> pool, std::uint64_t seed);

  /// Evaluation mode: Reset() always replays this trace. The environment
  /// keeps a pointer, so `trace` must outlive it; a temporary cannot.
  void SetFixedTrace(const traces::Trace& trace);
  void SetFixedTrace(const traces::Trace&&) = delete;

  /// Advances the trace-pool RNG as if `episodes` episodes had been Reset
  /// (one pool draw each) without running them. Lets per-member environment
  /// copies in parallel ensemble training reproduce the serial episode
  /// stream bit-exactly: member m trains on a copy fast-forwarded past the
  /// first m members' episodes.
  void SkipPoolEpisodes(std::size_t episodes);

  // mdp::Environment
  mdp::State Reset() override;
  mdp::StepResult Step(mdp::Action action) override;
  std::size_t ActionCount() const override { return video_.LevelCount(); }
  std::size_t StateSize() const override { return config_.layout.Size(); }

  /// A mid-session resume point: the environment's full dynamic state
  /// minus the immutable video/config/trace storage. Restoring one
  /// continues the session bit-identically from that step, at a fraction
  /// of the cost of copying the whole environment (which drags two
  /// VideoSpec copies along). Trace pointers are non-owning; the traces
  /// must outlive every restore. Used by record-and-replay calibration to
  /// checkpoint every step of a rollout.
  struct ResumePoint {
    AbrSimulator::Checkpoint simulator;
    QoeAccumulator qoe;
    const traces::Trace* fixed_trace = nullptr;
    const traces::Trace* current_trace = nullptr;
    std::vector<double> throughput_history_mbps;
    std::vector<double> download_time_history_s;
    double last_bitrate_mbps = 0.0;
    DownloadResult last_download;
  };
  ResumePoint SaveResumePoint() const;
  void RestoreResumePoint(const ResumePoint& rp);

  /// Observation side channels used by logging and the safety layer.
  const DownloadResult& LastDownload() const { return last_download_; }
  const QoeAccumulator& Qoe() const { return qoe_; }
  const VideoSpec& video() const { return video_; }
  const AbrStateLayout& layout() const { return config_.layout; }
  const traces::Trace* current_trace() const { return current_trace_; }

 private:
  VideoSpec video_;
  AbrEnvironmentConfig config_;
  AbrSimulator simulator_;
  QoeAccumulator qoe_;

  std::span<const traces::Trace> pool_;
  Rng pool_rng_;
  const traces::Trace* fixed_trace_ = nullptr;
  const traces::Trace* current_trace_ = nullptr;

  // Rolling observation history (oldest-first, length layout.history).
  std::vector<double> throughput_history_mbps_;
  std::vector<double> download_time_history_s_;
  double last_bitrate_mbps_ = 0.0;
  DownloadResult last_download_;

  mdp::State BuildState() const;
};

}  // namespace osap::abr
