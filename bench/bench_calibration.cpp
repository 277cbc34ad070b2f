// Calibration-cost micro-benchmarks (DESIGN.md §11).
//
// Three claims ride here, against a shared CalibrationReplay recording of
// the paper-scale validation set (the same recordings the Workbench
// calibration path consumes):
//
//   1. BM_CalibrateBisection / BM_CalibrateBisectionFullBudget: the cost
//      of the workbench's only offline threshold search, the replay
//      bisection (each QoE probe is a trigger scan plus fallback-suffix
//      replays), with its production early stop and at its full
//      iteration budget.
//   2. BM_StreamingObserve: the online arm's per-decision cost is O(1)
//      and nanosecond-scale - one windowed P² update plus a coverage
//      compare (the `/16` point folds in the RefreshAlpha every 16
//      observations that the serving cadence implies).
//   3. BM_ServeCalibration{Off,On}: one DecisionService decision round
//      over 1000 sessions with the streaming arm off vs on; the delta is
//      the <= 5% per-decision overhead budget (compare real runs of the
//      two rows with tools/bench_diff.py).
//
// Uses the shared ./osap_cache artifacts (trains them on first run).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "core/calibration.h"
#include "core/conformal.h"
#include "core/ensemble_estimators.h"
#include "core/novelty_detector.h"
#include "core/replay_calibration.h"
#include "policies/buffer_based.h"
#include "policies/pensieve_policy.h"
#include "serve/decision_service.h"
#include "serve/serving_model.h"
#include "util/rng.h"
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

/// Steady-state streaming cost: Observe() alone (arg 0) or with a
/// RefreshAlpha every `arg` observations (the serving cadence).
void BM_StreamingObserve(benchmark::State& state) {
  const auto refresh = static_cast<std::size_t>(state.range(0));
  core::StreamingConformal stream(0.05, 4096, 0.0);
  Rng rng(17);
  std::vector<double> xs(8192);
  for (double& x : xs) x = rng.Uniform(0.0, 2.0);
  std::size_t i = 0;
  for (auto _ : state) {
    stream.Observe(xs[i & (xs.size() - 1)]);
    ++i;
    if (refresh != 0 && i % refresh == 0) {
      benchmark::DoNotOptimize(stream.RefreshAlpha());
    }
  }
  benchmark::DoNotOptimize(stream.Alpha());
}
BENCHMARK(BM_StreamingObserve)->Arg(0)->Arg(16)->Unit(benchmark::kNanosecond);

/// One decision round over N sessions through the sharded service, with
/// the online-calibration arm off (arg1 == 0) or on (arg1 == 1). The
/// tentpole budget: the `On` row stays within 5% of the `Off` row.
void RunServeRound(benchmark::State& state, bool online) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::Workbench& bench = SharedBench();
  const auto& bundle = bench.BundleFor(kTrain);
  core::SafeAgentConfig safety;
  safety.trigger.mode = core::TriggerMode::kWindowVariance;
  safety.trigger.k = bench.config().trigger_k;
  safety.trigger.l = bench.config().trigger_l;
  safety.trigger.alpha = bundle.alpha_pi;
  const auto model = serve::ServingModel::AgentEnsemble(
      bundle.agents, bench.config().ensemble_discard, bench.eval_video(),
      bench.layout(), safety);
  serve::DecisionServiceConfig cfg;
  cfg.shard_count = 8;
  cfg.online_calibration = online;
  serve::DecisionService service(model, cfg);

  // A pool of real decision states from one evaluation session.
  std::vector<mdp::State> pool;
  {
    auto env = bench.MakeEvalEnvironment();
    env.SetFixedTrace(
        bench.DatasetFor(traces::DatasetId::kExponential).test.front());
    auto policy = bench.MakePolicy(core::Scheme::kPensieve, kTrain);
    mdp::State s = env.Reset();
    bool done = false;
    while (!done) {
      pool.push_back(s);
      mdp::StepResult r = env.Step(policy->SelectAction(s));
      s = std::move(r.next_state);
      done = r.done;
    }
  }
  std::vector<serve::DecisionService::SessionId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = service.OpenSession();
  std::vector<serve::DecisionService::Request> requests(n);
  std::vector<mdp::Action> actions(n);
  for (std::size_t i = 0; i < n; ++i) requests[i] = {ids[i], &pool[i % pool.size()]};
  service.DecideBatch(requests, actions);  // untimed scratch warmup
  std::size_t round = 0;
  double wall_seconds = 0.0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      requests[i] = {ids[i], &pool[(i * 17 + round) % pool.size()]};
    }
    const auto start = std::chrono::steady_clock::now();
    service.DecideBatch(requests, actions);
    wall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    benchmark::DoNotOptimize(actions.data());
    ++round;
  }
  if (wall_seconds > 0.0) {
    state.counters["decisions_per_s"] =
        static_cast<double>(state.iterations()) * static_cast<double>(n) /
        wall_seconds;
  }
  if (online) {
    state.counters["observations"] =
        static_cast<double>(service.CalibrationObservations());
  }
}

void BM_ServeCalibrationOff(benchmark::State& state) {
  RunServeRound(state, false);
}
void BM_ServeCalibrationOn(benchmark::State& state) {
  RunServeRound(state, true);
}
BENCHMARK(BM_ServeCalibrationOff)->Arg(1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ServeCalibrationOn)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace

OSAP_BENCHMARK_MAIN_WITH_JSON("BENCH_calibration.json")
