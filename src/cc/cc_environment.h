// MDP adapter for congestion control, following Aurora (Jay et al.,
// ICML '19 - the paper's reference [20]).
//
// Observations: the last `history` monitor intervals' statistic vectors
//   [ latency gradient   (d latency / d t, seconds per second),
//     latency ratio      (MI latency / connection-minimum latency),
//     send ratio         (sent / delivered),
//     delivered rate     (Mbps / 10) ],
// oldest-first. The first three are Aurora's deliberately scale-free
// statistics; the fourth is an absolute-throughput feature like the one
// Pensieve consumes. Absolute features help in-distribution (the agent
// can learn the training links' capacity range outright) and are exactly
// what fails to generalize when the deployment distribution shifts - the
// failure mode OSAP guards (in pilot runs, a purely scale-free agent
// transferred downward gracefully; the absolute feature restores the
// paper's brittleness realistically). The newest delivered rate is what
// the U_S novelty probe monitors.
//
// Actions: discrete rate multipliers applied to the current sending rate
// (softmax-friendly discretization of Aurora's continuous rate delta).
//
// Reward (Aurora's linear objective):
//   10 * delivered_Mbps - 1000 * avg_latency_s - 2000 * loss_rate.
#pragma once

#include <span>
#include <vector>

#include "cc/link.h"
#include "mdp/environment.h"
#include "traces/trace.h"
#include "util/rng.h"

namespace osap::cc {

/// Offsets/decoders for the congestion-control observation vector.
struct CcStateLayout {
  std::size_t history = 10;  // monitor intervals remembered

  static constexpr std::size_t kFeaturesPerMi = 4;
  static constexpr double kDeliveredNormMbps = 10.0;

  std::size_t Size() const { return history * kFeaturesPerMi; }
  std::size_t LatencyGradientIndex(std::size_t i) const {
    return i * kFeaturesPerMi;
  }
  std::size_t LatencyRatioIndex(std::size_t i) const {
    return i * kFeaturesPerMi + 1;
  }
  std::size_t SendRatioIndex(std::size_t i) const {
    return i * kFeaturesPerMi + 2;
  }
  std::size_t DeliveredIndex(std::size_t i) const {
    return i * kFeaturesPerMi + 3;
  }
  /// Newest send ratio (sent/delivered >= 1; ~1 when the link keeps up).
  double LatestSendRatio(const mdp::State& s) const {
    return s[SendRatioIndex(history - 1)];
  }
  double LatestLatencyRatio(const mdp::State& s) const {
    return s[LatencyRatioIndex(history - 1)];
  }
  /// Newest delivered rate in Mbps (the U_S monitoring signal).
  double LatestDeliveredMbps(const mdp::State& s) const {
    return s[DeliveredIndex(history - 1)] * kDeliveredNormMbps;
  }
};

struct CcEnvironmentConfig {
  LinkConfig link;
  CcStateLayout layout;
  /// Rate multipliers, one per action (must include a no-op-ish value).
  std::vector<double> rate_multipliers = {0.7, 0.93, 1.0, 1.07, 1.4};
  /// Initial sending rate and hard bounds.
  double initial_rate_mbps = 2.0;
  double min_rate_mbps = 0.02;
  double max_rate_mbps = 60.0;
  /// Monitor intervals per episode (connection length).
  std::size_t episode_mis = 400;
  /// Aurora reward weights.
  double throughput_weight = 10.0;
  double latency_weight = 1000.0;
  double loss_weight = 2000.0;
};

class CcEnvironment final : public mdp::Environment {
 public:
  explicit CcEnvironment(CcEnvironmentConfig config = {});

  /// Training mode: Reset() picks a capacity trace uniformly per episode.
  void SetTracePool(std::span<const traces::Trace> pool, std::uint64_t seed);

  /// Evaluation mode: Reset() always replays this trace. The environment
  /// keeps a pointer, so `trace` must outlive it; a temporary cannot.
  void SetFixedTrace(const traces::Trace& trace);
  void SetFixedTrace(const traces::Trace&&) = delete;

  // mdp::Environment
  mdp::State Reset() override;
  mdp::StepResult Step(mdp::Action action) override;
  std::size_t ActionCount() const override {
    return config_.rate_multipliers.size();
  }
  std::size_t StateSize() const override { return config_.layout.Size(); }

  /// Telemetry for logging / the safety layer.
  double CurrentRateMbps() const { return rate_mbps_; }
  const MiReport& LastReport() const { return last_report_; }
  const CcStateLayout& layout() const { return config_.layout; }
  const CcEnvironmentConfig& config() const { return config_; }

 private:
  CcEnvironmentConfig config_;
  BottleneckLink link_;

  std::span<const traces::Trace> pool_;
  Rng pool_rng_;
  const traces::Trace* fixed_trace_ = nullptr;

  double rate_mbps_ = 0.0;
  double min_latency_seconds_ = 0.0;
  double prev_latency_seconds_ = 0.0;
  std::size_t mi_count_ = 0;
  std::vector<double> features_;  // rolling window, oldest-first
  MiReport last_report_;

  mdp::State BuildState() const;
};

}  // namespace osap::cc
