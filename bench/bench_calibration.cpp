// Calibration-cost micro-benchmarks (DESIGN.md §11).
//
// BM_CalibrateBisection / BM_CalibrateBisectionFullBudget time the
// workbench's one threshold search, the replay bisection (each QoE probe
// is a trigger scan plus fallback-suffix replays), with its production
// early stop and at its full iteration budget, against a shared
// CalibrationReplay recording of the paper-scale validation set (the
// same recordings the Workbench calibration path consumes).
//
// Uses the shared ./osap_cache artifacts (trains them on first run).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "bench_common.h"
#include "bench_json.h"
#include "core/calibration.h"
#include "core/ensemble_estimators.h"
#include "core/novelty_detector.h"
#include "core/replay_calibration.h"
#include "policies/buffer_based.h"
#include "policies/pensieve_policy.h"
#include "util/thread_pool.h"

using namespace osap;

namespace {

constexpr auto kTrain = traces::DatasetId::kGamma22;

core::Workbench& SharedBench() {
  static auto* bench = new core::Workbench(bench::PaperConfig());
  return *bench;
}

util::ThreadPool& SharedPool() {
  static auto* pool = new util::ThreadPool(
      std::max<std::size_t>(1, std::thread::hardware_concurrency() - 1));
  return *pool;
}

/// The recording the bisection consumes: every validation trace's
/// no-default greedy rollout, scored once with the agent ensemble (the
/// U_pi scheme the paper calibrates first).
core::CalibrationReplay<abr::AbrEnvironment>& SharedReplay() {
  static auto* replay = [] {
    core::Workbench& bench = SharedBench();
    const auto& bundle = bench.BundleFor(kTrain);
    const auto& validation = bench.DatasetFor(kTrain).validation;
    abr::AbrEnvironment env = bench.MakeEvalEnvironment();
    auto* r = new core::CalibrationReplay<abr::AbrEnvironment>(
        [&]() -> std::shared_ptr<mdp::Policy> {
          return std::make_shared<policies::PensievePolicy>(
              bundle.agents.front(), policies::ActionSelection::kGreedy, 0);
        },
        [&]() -> std::shared_ptr<mdp::Policy> {
          return std::make_shared<policies::BufferBasedPolicy>(
              bench.eval_video(), bench.layout());
        },
        env, validation, bench.config().trigger_k, bench.config().trigger_l,
        SharedPool());
    r->ScoreWith([&]() -> std::shared_ptr<core::UncertaintyEstimator> {
      return std::make_shared<core::AgentEnsembleEstimator>(
          bundle.agents, bench.config().ensemble_discard);
    });
    return r;
  }();
  return *replay;
}

struct CalibrationTarget {
  double nd_qoe;
  double hi;
};

const CalibrationTarget& SharedTarget() {
  static const CalibrationTarget* target = [] {
    auto& replay = SharedReplay();
    auto* t = new CalibrationTarget();
    t->hi = replay.MaxFullWindowVariance();
    // The ND target needs the novelty scores; re-score with the agent
    // ensemble afterwards so the timed arms see the series they consume.
    core::Workbench& bench = SharedBench();
    const auto& bundle = bench.BundleFor(kTrain);
    replay.ScoreWith([&]() -> std::shared_ptr<core::UncertaintyEstimator> {
      auto detector = std::make_shared<core::NoveltyDetector>(*bundle.novelty);
      detector->Reset();
      return detector;
    });
    t->nd_qoe = replay.MeanQoeAtBinaryTrigger();
    replay.ScoreWith([&]() -> std::shared_ptr<core::UncertaintyEstimator> {
      return std::make_shared<core::AgentEnsembleEstimator>(
          bundle.agents, bench.config().ensemble_discard);
    });
    return t;
  }();
  return *target;
}

double QoeAt(double alpha) { return SharedReplay().MeanQoeAt(alpha); }

/// One full replay bisection as the workbench runs it (the per-probe
/// trigger scan + fallback-suffix replay is the cost being amortized).
void BM_CalibrateBisection(benchmark::State& state) {
  const CalibrationTarget& target = SharedTarget();
  const core::CalibrationConfig cfg = SharedBench().config().calibration;
  std::size_t iterations = 0;
  for (auto _ : state) {
    const core::CalibrationResult result = core::CalibrateAlpha(
        QoeAt, target.nd_qoe, 0.0, target.hi * 1.25, cfg);
    benchmark::DoNotOptimize(result.alpha);
    iterations = result.iterations;
  }
  state.counters["qoe_probes"] = static_cast<double>(iterations);
}
BENCHMARK(BM_CalibrateBisection)->Unit(benchmark::kMillisecond);

/// The sweep at its full iteration budget (tolerance 0): what the
/// bisection costs when the QoE surface is NOT flat enough for the
/// early exit.
void BM_CalibrateBisectionFullBudget(benchmark::State& state) {
  const CalibrationTarget& target = SharedTarget();
  core::CalibrationConfig cfg = SharedBench().config().calibration;
  cfg.tolerance = 0.0;
  std::size_t iterations = 0;
  for (auto _ : state) {
    const core::CalibrationResult result = core::CalibrateAlpha(
        QoeAt, target.nd_qoe, 0.0, target.hi * 1.25, cfg);
    benchmark::DoNotOptimize(result.alpha);
    iterations = result.iterations;
  }
  state.counters["qoe_probes"] = static_cast<double>(iterations);
}
BENCHMARK(BM_CalibrateBisectionFullBudget)->Unit(benchmark::kMillisecond);

}  // namespace

OSAP_BENCHMARK_MAIN_WITH_JSON("BENCH_calibration.json")
