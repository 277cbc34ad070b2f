// Hot-path micro-benchmarks for the optimized kernels: blocked MatMul,
// tiled Transposed, batched ensemble inference vs the old per-member
// loop, the contiguous OC-SVM decision scan, and multi-trace evaluation
// under the thread pool (serial vs ParallelFor rollouts).
//
// Standalone: builds untrained nets and generated traces, so it needs no
// osap_cache and runs in seconds. Writes BENCH_hot_paths.json.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_json.h"

#include "abr/abr_environment.h"
#include "core/evaluation.h"
#include "nn/actor_critic_net.h"
#include "nn/ensemble_forward.h"
#include "nn/matrix.h"
#include "policies/buffer_based.h"
#include "policies/pensieve_net.h"
#include "svm/ocsvm.h"
#include "traces/generators.h"
#include "util/thread_pool.h"

using namespace osap;

namespace {

nn::Matrix RandomMatrix(std::size_t rows, std::size_t cols, Rng& rng) {
  nn::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) m.At(i, j) = rng.Normal(0.0, 1.0);
  return m;
}

/// MatMul over the shapes the inference and training paths actually hit:
/// 1xN row-vector chains (online decisions), mid-size square (training
/// batches), and the 5-row batched-ensemble shape.
void BM_MatMul(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  Rng rng(1);
  const nn::Matrix a = RandomMatrix(m, k, rng);
  const nn::Matrix b = RandomMatrix(k, n, rng);
  nn::Matrix out;
  for (auto _ : state) {
    a.MatMulInto(b, out);
    benchmark::DoNotOptimize(out.At(0, 0));
  }
}
BENCHMARK(BM_MatMul)
    ->Args({1, 25, 128})
    ->Args({5, 25, 128})
    ->Args({64, 64, 64})
    ->Args({128, 128, 128})
    ->Args({240, 128, 6});

void BM_Transposed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const nn::Matrix a = RandomMatrix(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Transposed());
  }
}
BENCHMARK(BM_Transposed)->Arg(64)->Arg(256);

/// Five untrained Pensieve actor-critic members: the U_pi ensemble shape.
struct PensieveEnsemble {
  abr::AbrStateLayout layout;
  std::vector<std::unique_ptr<nn::ActorCriticNet>> members;
  std::vector<const nn::CompositeNet*> actors;

  PensieveEnsemble() {
    Rng rng(1);
    for (int m = 0; m < 5; ++m) {
      members.push_back(std::make_unique<nn::ActorCriticNet>(
          policies::MakePensieveActorCritic(layout, {}, rng)));
      actors.push_back(&members.back()->actor());
    }
  }
};

/// The old U_pi inner loop: five sequential per-member forwards.
void BM_EnsembleForwardSequential(benchmark::State& state) {
  const PensieveEnsemble ensemble;
  const std::vector<double> s(ensemble.layout.Size(), 0.25);
  for (auto _ : state) {
    for (const auto& member : ensemble.members)
      benchmark::DoNotOptimize(member->ActionProbs(s));
  }
}
BENCHMARK(BM_EnsembleForwardSequential)->Unit(benchmark::kMicrosecond);

/// The new U_pi inner loop: one fused pass over the packed five-member
/// weights for one state (what AgentEnsembleEstimator::Score runs per
/// decision).
void BM_EnsembleForwardBatched(benchmark::State& state) {
  const PensieveEnsemble ensemble;
  const nn::BatchedEnsemble batched(ensemble.actors);
  nn::InferScratch scratch;
  const nn::Matrix s(1, ensemble.layout.Size(),
                     std::vector<double>(ensemble.layout.Size(), 0.25));
  for (auto _ : state) {
    benchmark::DoNotOptimize(batched.InferBatch(s, scratch).At(0, 0));
  }
}
BENCHMARK(BM_EnsembleForwardBatched)->Unit(benchmark::kMicrosecond);

/// The fused five-member pass over `range(0)` states at once, at the batch
/// sizes a serving shard's scoring pass sees (1-2 states per round at wire
/// load; 4 and 8 in offline scoring and saturated rounds). Time is per
/// call, so the per-state cost is the time over `range(0)`.
void BM_EnsembleInferBatch(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const PensieveEnsemble ensemble;
  const nn::BatchedEnsemble batched(ensemble.actors);
  Rng rng(2);
  const nn::Matrix states =
      RandomMatrix(batch, ensemble.layout.Size(), rng);
  nn::InferScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(batched.InferBatch(states, scratch).At(0, 0));
  }
}
BENCHMARK(BM_EnsembleInferBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

/// The backward-pass kernels at the Pensieve trunk's training shapes:
/// dW = x^T dy (TN, accumulating into the existing grad) and dx = dy W^T
/// (NT), for the 240-row episode batch through the 256->32 trunk and the
/// 32->6 actor head. These are the products Linear::Backward issues; the
/// benchmark pins the win from never materializing Transposed() copies.
void BM_PensieveBackwardKernels(benchmark::State& state) {
  Rng rng(3);
  const nn::Matrix x = RandomMatrix(240, 256, rng);   // trunk input
  const nn::Matrix dy = RandomMatrix(240, 32, rng);   // trunk output grad
  const nn::Matrix w = RandomMatrix(256, 32, rng);    // trunk weight
  const nn::Matrix xh = RandomMatrix(240, 32, rng);   // head input
  const nn::Matrix dyh = RandomMatrix(240, 6, rng);   // head output grad
  const nn::Matrix wh = RandomMatrix(32, 6, rng);     // head weight
  nn::Matrix dw(256, 32);
  nn::Matrix dwh(32, 6);
  nn::Matrix dx;
  nn::Matrix dxh;
  for (auto _ : state) {
    x.MatMulTNInto(dy, dw, /*accumulate=*/true);
    dy.MatMulNTInto(w, dx);
    xh.MatMulTNInto(dyh, dwh, /*accumulate=*/true);
    dyh.MatMulNTInto(wh, dxh);
    benchmark::DoNotOptimize(dw.At(0, 0));
    benchmark::DoNotOptimize(dx.At(0, 0));
  }
}
BENCHMARK(BM_PensieveBackwardKernels)->Unit(benchmark::kMicrosecond);

/// The contiguous U_S decision scan as a function of support-vector count.
void BM_OcSvmDecision(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<std::vector<double>> features;
  for (std::size_t i = 0; i < n; ++i)
    features.push_back({rng.Normal(3.0, 0.5), rng.Normal(0.5, 0.1)});
  svm::OneClassSvm model;
  model.Fit(features);
  const std::vector<double> x = {3.0, 0.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.DecisionValue(x));
  }
}
BENCHMARK(BM_OcSvmDecision)->Arg(200)->Arg(1000)->Arg(4000);

/// Multi-trace evaluation: BufferBased rollouts over 16 generated traces
/// (no training needed), serial EvaluatePolicy vs EvaluatePolicyParallel
/// with a worker budget of `range(0)` threads.
std::vector<traces::Trace> BenchTraces() {
  Rng rng(11);
  const auto gen = traces::MakeNorway3gGenerator();
  std::vector<traces::Trace> out;
  for (std::size_t i = 0; i < 16; ++i)
    out.push_back(gen->Generate(rng, 600.0, i));
  return out;
}

void BM_EvaluateMultiTraceSerial(benchmark::State& state) {
  const abr::VideoSpec video = abr::MakeEnvivioLikeVideo(5);
  abr::AbrEnvironment env(video, {});
  abr::AbrStateLayout layout;
  policies::BufferBasedPolicy policy(video, layout);
  const std::vector<traces::Trace> traces = BenchTraces();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::EvaluatePolicy(policy, env, traces));
  }
}
BENCHMARK(BM_EvaluateMultiTraceSerial)->Unit(benchmark::kMillisecond);

void BM_EvaluateMultiTraceParallel(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const abr::VideoSpec video = abr::MakeEnvivioLikeVideo(5);
  abr::AbrEnvironment env(video, {});
  abr::AbrStateLayout layout;
  const std::vector<traces::Trace> traces = BenchTraces();
  // A private pool of exactly the requested width. The shared pool sizes
  // itself to HardwareConcurrency() - 1, which is 0 workers on a
  // single-core runner - every Arg() then silently measured the same
  // serial fallback. Constructing the pool makes the benchmark measure
  // real contention/speedup at each width regardless of the host.
  util::ThreadPool pool(threads - 1);
  const util::ParallelOptions options{.max_workers = threads - 1, .chunk = 1};
  const auto make_policy = [&] {
    return std::make_shared<policies::BufferBasedPolicy>(video, layout);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::EvaluatePolicyParallel(make_policy, env, traces, pool, options));
  }
}
BENCHMARK(BM_EvaluateMultiTraceParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

OSAP_BENCHMARK_MAIN_WITH_JSON("BENCH_hot_paths.json")
