// Serving-path throughput: sharded cross-session micro-batching vs the
// one-session-at-a-time loop.
//
// The workload is a fixed population of N concurrent viewers, each
// presenting one decision request per round (open-loop replay of recorded
// session states, so both arms do identical per-session work and the
// numbers isolate decision cost):
//   - BM_ServeSequential*: the naive deployment - N independent SafeAgent
//     instances, each owning a private estimator with its own packed
//     weight copy, polled one session at a time. Every round streams N
//     copies of identical weights through the cache hierarchy.
//   - BM_ServeService*: one shared ServingModel behind a sharded
//     DecisionService; a round is a single DecideBatch over all N
//     sessions (per shard tile of up to core::kRowTile live requests: one
//     fused ensemble pass / one OC-SVM scan + one batched deployed-actor
//     pass).
//   - BM_ServeServiceDefaulted*: the service round with a chosen share of
//     the sessions already defaulted (args {sessions, defaulted %}).
//   - BM_ServeServiceSparse*: rounds of 1-2 requests on 2 shards,
//     reporting process CPU and wall time per decision.
// Args are {sessions} for the sequential arm and {sessions, shards} for
// the service. Every BM_ServeService* row is one submitter: its shards
// run in order on the benchmark thread, so multi-shard rows measure
// per-shard batching, not cores; the multi-core row is the BM_NetServe*
// edge sweep (one thread per edge). decisions_per_s is a REAL-TIME rate
// (wall clock around the decision loop, comparable with the multi-edge
// rows); rates stay console-only while the sidecar gates the
// lower-is-better entries. The service arm additionally reports
// per-round latency percentiles (p50_us / p99_us).
//
// BM_ServeServiceMem* is the memory sweep: it opens {sessions} sessions
// against a {shards}-shard service, drives a few rounds so scratch
// materializes, and reports bytes_per_session (exact, from
// ServiceMemoryStats - the number the memory-diet gate pins), rss_mb
// (process RSS growth over the run) and peak_rss_mb. Run it alone with
// OSAP_BENCH_JSON=BENCH_serving_mem.json to produce the memory baseline.
//
// BM_ArtifactLoad* is the serving start-up layer: one iteration loads
// from the cache the full bundle (Bundle: a fresh Workbench's BundleFor)
// or one scheme's served artifacts (Us / Upi / Uv: a fresh
// ArtifactCache's LoadServedArtifacts, what osap_serve reads).
//
// Uses the shared ./osap_cache artifacts (trains them on first run).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <ctime>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench_common.h"
#include "bench_json.h"
#include "core/ensemble_estimators.h"
#include "core/novelty_detector.h"
#include "net/client.h"
#include "net/server.h"
#include "core/safe_agent.h"
#include "policies/buffer_based.h"
#include "policies/pensieve_policy.h"
#include "serve/decision_service.h"
#include "serve/serving_model.h"
#include "util/logging.h"
#include "util/rss.h"

using namespace osap;

namespace {

core::Workbench& SharedBench() {
  static auto* bench = new core::Workbench(bench::PaperConfig());
  return *bench;
}

constexpr auto kTrain = traces::DatasetId::kGamma22;

/// Recorded decision states: greedy-agent sessions over in-distribution
/// (gamma) and out-of-distribution (exponential) test traces. Viewer i
/// replays the pool from offset i * 17, so concurrent sessions are spread
/// across session phases and distributions.
const std::vector<mdp::State>& StatePool() {
  static const std::vector<mdp::State>* pool = [] {
    auto* out = new std::vector<mdp::State>();
    core::Workbench& bench = SharedBench();
    auto policy = bench.MakePolicy(core::Scheme::kPensieve, kTrain);
    for (const auto test :
         {traces::DatasetId::kGamma22, traces::DatasetId::kExponential}) {
      const auto& traces = bench.DatasetFor(test).test;
      for (std::size_t t = 0; t < 2 && t < traces.size(); ++t) {
        auto env = bench.MakeEvalEnvironment();
        env.SetFixedTrace(traces[t]);
        mdp::State s = env.Reset();
        bool done = false;
        while (!done) {
          out->push_back(s);
          mdp::StepResult r = env.Step(policy->SelectAction(s));
          s = std::move(r.next_state);
          done = r.done;
        }
      }
    }
    return out;
  }();
  return *pool;
}

const mdp::State& PooledState(std::size_t session, std::size_t round) {
  const auto& pool = StatePool();
  return pool[(session * 17 + round) % pool.size()];
}

/// The deployed trigger configuration for a safety scheme, with the
/// bundle's calibrated alphas.
core::SafeAgentConfig TriggerFor(core::Scheme scheme) {
  return SharedBench().TriggerFor(scheme, SharedBench().BundleFor(kTrain));
}

/// A private estimator instance - its own packed weight / support-vector
/// copy, exactly what each per-session SafeAgent owns in the naive
/// deployment.
std::shared_ptr<core::UncertaintyEstimator> PrivateEstimator(
    core::Scheme scheme) {
  const auto& bundle = SharedBench().BundleFor(kTrain);
  const std::size_t discard = SharedBench().config().ensemble_discard;
  switch (scheme) {
    case core::Scheme::kNoveltyDetection: {
      auto detector = std::make_shared<core::NoveltyDetector>(*bundle.novelty);
      detector->Reset();
      return detector;
    }
    case core::Scheme::kAgentEnsemble:
      return std::make_shared<core::AgentEnsembleEstimator>(bundle.agents,
                                                            discard);
    default:
      return std::make_shared<core::ValueEnsembleEstimator>(bundle.value_nets,
                                                            discard);
  }
}

std::shared_ptr<const serve::ServingModel> SharedModel(core::Scheme scheme) {
  core::Workbench& bench = SharedBench();
  return serve::ServingModel::ForScheme(bench, scheme, bench.BundleFor(kTrain),
                                        TriggerFor(scheme));
}

/// One-session-at-a-time baseline: N private SafeAgents polled in a loop.
/// Like the service arms (TimeServiceRounds), every session is held live:
/// an agent that defaults is reset between rounds, so both arms keep
/// scoring every decision however long the benchmark runs.
void RunSequential(benchmark::State& state, core::Scheme scheme) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::Workbench& bench = SharedBench();
  const auto& bundle = bench.BundleFor(kTrain);
  const core::SafeAgentConfig cfg = TriggerFor(scheme);
  std::vector<std::unique_ptr<core::SafeAgent>> agents;
  agents.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    agents.push_back(std::make_unique<core::SafeAgent>(
        std::make_shared<policies::PensievePolicy>(
            bundle.agents.front(), policies::ActionSelection::kGreedy, 0),
        std::make_shared<policies::BufferBasedPolicy>(bench.eval_video(),
                                                      bench.layout()),
        PrivateEstimator(scheme), cfg));
  }
  StatePool();  // materialize outside the timed region
  std::size_t round = 0;
  double wall_seconds = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(agents[i]->SelectAction(PooledState(i, round)));
    }
    wall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    ++round;
    for (auto& agent : agents) {
      if (agent->Defaulted()) agent->Reset();
    }
  }
  if (wall_seconds > 0.0) {
    state.counters["decisions_per_s"] =
        static_cast<double>(state.iterations()) * static_cast<double>(n) /
        wall_seconds;
  }
}

/// Times DecideBatch rounds of every session in `ids` over the pooled
/// states, after one untimed warmup round, and reports the round
/// latency percentiles (p50_us / p99_us) and decisions_per_s. Sessions
/// [live_begin, n) are held live: one that defaults on the pool's
/// out-of-distribution states is closed and reopened between rounds
/// (outside the round clock behind p50_us / p99_us / decisions_per_s),
/// so the defaulted share stays where the caller set it instead of
/// drifting up with the iteration count - defaulted sessions skip
/// scoring, so a drifting share would make the round cost depend on how
/// long the benchmark ran.
void TimeServiceRounds(benchmark::State& state,
                       serve::DecisionService& service,
                       std::vector<serve::DecisionService::SessionId>& ids,
                       std::size_t live_begin) {
  const std::size_t n = ids.size();
  std::vector<serve::DecisionService::Request> requests(n);
  std::vector<mdp::Action> actions(n);
  StatePool();  // materialize outside the timed region
  // One untimed warmup round: the first DecideBatch grows the group's
  // routing arrays and warms the caches, and would otherwise dominate the
  // p99 counter in short smoke runs.
  for (std::size_t i = 0; i < n; ++i) {
    requests[i] = {ids[i], &PooledState(i, 0)};
  }
  service.DecideBatch(requests, actions);
  std::vector<double> round_us;
  std::size_t round = 0;
  for (auto _ : state) {
    for (std::size_t i = live_begin; i < n; ++i) {
      if (!service.Defaulted(ids[i])) continue;
      service.CloseSession(ids[i]);
      ids[i] = service.OpenSession();
    }
    for (std::size_t i = 0; i < n; ++i) {
      requests[i] = {ids[i], &PooledState(i, round)};
    }
    const auto start = std::chrono::steady_clock::now();
    service.DecideBatch(requests, actions);
    const auto stop = std::chrono::steady_clock::now();
    round_us.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
    benchmark::DoNotOptimize(actions.data());
    ++round;
  }
  std::sort(round_us.begin(), round_us.end());
  if (!round_us.empty()) {
    state.counters["p50_us"] = round_us[round_us.size() / 2];
    state.counters["p99_us"] = round_us[round_us.size() * 99 / 100];
    double wall_us = 0.0;
    for (double us : round_us) wall_us += us;
    state.counters["decisions_per_s"] =
        static_cast<double>(round_us.size()) * static_cast<double>(n) /
        (wall_us * 1e-6);
  }
}

/// Sharded service: one DecideBatch over all N sessions per round.
void RunService(benchmark::State& state, core::Scheme scheme) {
  const auto n = static_cast<std::size_t>(state.range(0));
  serve::DecisionServiceConfig cfg;
  cfg.shard_count = static_cast<std::size_t>(state.range(1));
  serve::DecisionService service(SharedModel(scheme), cfg);
  std::vector<serve::DecisionService::SessionId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = service.OpenSession();
  TimeServiceRounds(state, service, ids, 0);
}

/// Two alternating network extremes (throughput taps at 0.05 Mbps with
/// 10 s downloads, then 50 Mbps with 1 ms downloads) grafted onto a
/// pooled state: every signal reads the swing as out-of-distribution -
/// the OC-SVM flags the throughput window, the ensembles' scores swing
/// with it and blow up the trigger-window variance.
const std::vector<mdp::State>& StormStates() {
  static const std::vector<mdp::State>* storm = [] {
    const abr::AbrStateLayout& layout = SharedBench().layout();
    auto* out = new std::vector<mdp::State>();
    for (const double mbps : {0.05, 50.0}) {
      mdp::State s = StatePool()[StatePool().size() / 4];
      for (std::size_t t = 0; t < layout.history; ++t) {
        s[layout.ThroughputBegin() + t] =
            mbps / abr::AbrStateLayout::kThroughputNormMbps;
        s[layout.DownloadTimeBegin() + t] =
            (mbps < 1.0 ? 10.0 : 0.001) /
            abr::AbrStateLayout::kDownloadTimeNormSeconds;
      }
      out->push_back(std::move(s));
    }
    return out;
  }();
  return *storm;
}

/// Defaulted-share axis: the BM_ServeService round ({sessions}, one
/// shard) with {share}% of the sessions already defaulted. Before timing,
/// the first sessions*share/100 sessions alone replay StormStates()
/// until each has defaulted (checked: exactly that share is defaulted,
/// reported as defaulted_share); then every session takes the timed
/// rounds over the pooled states, the rest held live. Defaulted sessions
/// are answered before the shard packs (DESIGN.md §9), so at 90% a U_pi /
/// U_V round should approach the Buffer-Based cost.
void RunServiceDefaulted(benchmark::State& state, core::Scheme scheme) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto target = n * static_cast<std::size_t>(state.range(1)) / 100;
  serve::DecisionService service(SharedModel(scheme));
  std::vector<serve::DecisionService::SessionId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = service.OpenSession();
  const std::vector<mdp::State>& storm = StormStates();
  std::vector<serve::DecisionService::Request> requests;
  std::vector<mdp::Action> actions(target);
  for (std::size_t round = 0; round < 256; ++round) {
    requests.clear();
    for (std::size_t i = 0; i < target; ++i) {
      if (service.Defaulted(ids[i])) continue;
      requests.push_back({ids[i], &storm[round % storm.size()]});
    }
    if (requests.empty()) break;
    service.DecideBatch(requests, actions);
  }
  std::size_t defaulted = 0;
  for (const auto id : ids) defaulted += service.Defaulted(id) ? 1 : 0;
  OSAP_CHECK_MSG(defaulted == target,
                 "BM_ServeServiceDefaulted: the storm did not default "
                 "exactly the requested share");
  state.counters["defaulted_share"] =
      static_cast<double>(defaulted) / static_cast<double>(n);
  TimeServiceRounds(state, service, ids, target);
}

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Sparse rounds, the composition a lightly loaded network edge submits
/// (one or two requests per round): {sessions} sessions on a {shards}-shard
/// service, each round deciding 1 or 2 of them (alternating) drawn by a
/// fixed LCG, so a round may touch either shard alone or both. One
/// iteration is one round. Reports wall_us_per_decision and
/// cpu_us_per_decision (process CPU). A session that defaults is closed
/// and reopened after its round, so every decision is scored.
void RunServiceSparse(benchmark::State& state, core::Scheme scheme) {
  const auto n = static_cast<std::size_t>(state.range(0));
  serve::DecisionServiceConfig cfg;
  cfg.shard_count = static_cast<std::size_t>(state.range(1));
  serve::DecisionService service(SharedModel(scheme), cfg);
  std::vector<serve::DecisionService::SessionId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = service.OpenSession();
  StatePool();  // materialize outside the timed region
  std::vector<serve::DecisionService::Request> requests;
  std::vector<std::size_t> picked;
  mdp::Action actions[2] = {};
  std::uint64_t lcg = 1;
  std::size_t round = 0, decisions = 0;
  const double cpu_start = ProcessCpuSeconds();
  const auto wall_start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    requests.clear();
    picked.clear();
    while (picked.size() < 1 + round % 2) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      const std::size_t i = static_cast<std::size_t>(lcg >> 33) % n;
      if (!picked.empty() && picked[0] == i) continue;
      picked.push_back(i);
      requests.push_back({ids[i], &PooledState(i, round)});
    }
    service.DecideBatch(requests, actions);
    benchmark::DoNotOptimize(actions);
    for (const std::size_t i : picked) {
      if (!service.Defaulted(ids[i])) continue;
      service.CloseSession(ids[i]);
      ids[i] = service.OpenSession();
    }
    decisions += picked.size();
    ++round;
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  const double cpu_s = ProcessCpuSeconds() - cpu_start;
  if (decisions > 0) {
    state.counters["cpu_us_per_decision"] =
        1e6 * cpu_s / static_cast<double>(decisions);
    state.counters["wall_us_per_decision"] =
        1e6 * wall_s / static_cast<double>(decisions);
  }
}

/// Memory sweep: bytes/session at scale. One iteration builds a service,
/// opens N sessions, runs a few rounds (so extractor slabs, trigger rings
/// and shard scratch all materialize) and reports the exact per-session
/// accounting plus the kernel's view of the process.
void RunServiceMem(benchmark::State& state, core::Scheme scheme) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  const auto model = SharedModel(scheme);
  StatePool();
  for (auto _ : state) {
#if defined(__GLIBC__)
    // Return freed heap to the kernel first: without this the RSS delta
    // depends on what earlier benchmarks left in the allocator (a run
    // reusing a predecessor's freed pages reports ~0), which would make
    // the committed rss_mb baseline order-dependent.
    malloc_trim(0);
#endif
    const std::size_t rss_before = util::CurrentRssBytes();
    serve::DecisionServiceConfig cfg;
    cfg.shard_count = shards;
    serve::DecisionService service(model, cfg);
    std::vector<serve::DecisionService::SessionId> ids(n);
    for (std::size_t i = 0; i < n; ++i) ids[i] = service.OpenSession();
    std::vector<serve::DecisionService::Request> requests(n);
    std::vector<mdp::Action> actions(n);
    for (std::size_t round = 0; round < 2; ++round) {
      for (std::size_t i = 0; i < n; ++i) {
        requests[i] = {ids[i], &PooledState(i, round)};
      }
      service.DecideBatch(requests, actions);
    }
    const serve::ServiceMemoryStats stats = service.MemoryStats();
    const std::size_t rss_after = util::CurrentRssBytes();
    state.counters["bytes_per_session"] = stats.BytesPerSession();
    state.counters["scratch_mb"] =
        static_cast<double>(stats.scratch_bytes) / 1e6;
    state.counters["rss_mb"] =
        rss_after > rss_before
            ? static_cast<double>(rss_after - rss_before) / 1e6
            : 0.0;
    state.counters["peak_rss_mb"] =
        static_cast<double>(util::PeakRssBytes()) / 1e6;
  }
}

/// Network-edge arm: the same {sessions, shards} round as RunService, but
/// over real loopback TCP through the epoll NetServer - one pipelined
/// STEP per session, one flush, read every reply. A round's wall clock
/// therefore includes frame encoding, both kernel socket stacks, the
/// server's parse/admit/batch/flush cycle and the reply decode, so the
/// delta against BM_ServeService is the cost of the wire. decisions_per_s
/// stays console-only (rate); the gated sidecar entries are the
/// round-trip percentiles.
///
/// The third arg is edge_threads: with E > 1 edges the round fans out
/// over E client threads, one connection per edge (the server places
/// sequential connections on a fresh server one per edge, in order), and
/// the round's wall clock is the slowest edge's send-flush-collect.
/// Sweeping /{1,2,4,8} edges at fixed shards is the scaling curve.
void RunNetServe(benchmark::State& state, core::Scheme scheme) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  const auto edges = static_cast<std::size_t>(state.range(2));
  net::NetServerConfig cfg;
  cfg.service.shard_count = shards;
  cfg.edge_threads = edges;
  net::NetServer server(SharedModel(scheme), cfg);
  server.Start();
  std::thread loop([&server] { server.Run(); });

  // Client e is the server's e-th connection, so it lands on edge e.
  std::vector<std::unique_ptr<net::Client>> clients(edges);
  for (auto& c : clients) {
    c = std::make_unique<net::Client>();
    c->Connect("127.0.0.1", server.Port());
  }

  // Edge e owns sessions [offset, offset + count) of the population.
  std::vector<std::vector<std::uint64_t>> sessions(edges);
  std::vector<std::size_t> offset(edges);
  std::size_t next_offset = 0;
  for (std::size_t e = 0; e < edges; ++e) {
    const std::size_t count = n / edges + (e < n % edges ? 1 : 0);
    offset[e] = next_offset;
    next_offset += count;
    sessions[e].reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      sessions[e].push_back(clients[e]->OpenSession());
    }
  }
  StatePool();  // materialize outside the timed region

  // Persistent per-edge workers, two barrier phases per round: arrive
  // (round starts), run the edge's pipelined send-flush-collect, arrive
  // (round done). The timed region spans both phases, so a round costs
  // what the SLOWEST edge costs - exactly the fan-out being measured.
  std::barrier sync(static_cast<std::ptrdiff_t>(edges) + 1);
  std::atomic<bool> done{false};
  std::atomic<std::size_t> ok_total{0};
  std::atomic<std::size_t> round{0};
  std::vector<std::thread> workers;
  workers.reserve(edges);
  for (std::size_t e = 0; e < edges; ++e) {
    workers.emplace_back([&, e] {
      net::Client& client = *clients[e];
      std::uint64_t rid = static_cast<std::uint64_t>(e + 1) << 20;
      net::Reply reply;
      while (true) {
        sync.arrive_and_wait();
        if (done.load(std::memory_order_acquire)) return;
        const std::size_t r = round.load(std::memory_order_relaxed);
        std::size_t ok = 0;
        for (std::size_t i = 0; i < sessions[e].size(); ++i) {
          client.SendStep(++rid, sessions[e][i],
                          PooledState(offset[e] + i, r));
        }
        client.Flush();
        for (std::size_t i = 0; i < sessions[e].size(); ++i) {
          if (client.ReadReply(reply) && reply.status == net::Status::kOk) {
            ++ok;
          }
        }
        ok_total.fetch_add(ok, std::memory_order_relaxed);
        sync.arrive_and_wait();
      }
    });
  }

  const auto run_round = [&] {
    ok_total.store(0, std::memory_order_relaxed);
    sync.arrive_and_wait();  // release the edges into the round
    sync.arrive_and_wait();  // every edge collected its replies
    OSAP_CHECK_MSG(ok_total.load(std::memory_order_relaxed) == n,
                   "BM_NetServe: lost or rejected replies");
    round.fetch_add(1, std::memory_order_relaxed);
  };
  run_round();  // one untimed warmup round (see TimeServiceRounds)
  // The syscall ratio counts the timed rounds only: connection setup,
  // OPENs and the warmup round would otherwise dominate short runs.
  const std::uint64_t syscalls_before = server.IoSyscalls();
  const std::uint64_t decided_before = server.Stats().decided;

  std::vector<double> round_us;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    run_round();
    const auto stop = std::chrono::steady_clock::now();
    round_us.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
  }
  const std::uint64_t syscalls = server.IoSyscalls() - syscalls_before;
  const std::uint64_t decided = server.Stats().decided - decided_before;

  done.store(true, std::memory_order_release);
  sync.arrive_and_wait();  // release the workers into the exit check
  for (std::thread& w : workers) w.join();
  for (auto& c : clients) c->Close();
  server.Stop();
  loop.join();
  // The edge's second axis next to round latency: kernel crossings per
  // decision of the timed rounds.
  if (decided > 0) {
    state.counters["syscalls_per_decision"] =
        static_cast<double>(syscalls) / static_cast<double>(decided);
  }
  std::sort(round_us.begin(), round_us.end());
  if (!round_us.empty()) {
    state.counters["p50_us"] = round_us[round_us.size() / 2];
    state.counters["p99_us"] = round_us[round_us.size() * 99 / 100];
    double wall_us = 0.0;
    for (double us : round_us) wall_us += us;
    state.counters["decisions_per_s"] =
        static_cast<double>(round_us.size()) * static_cast<double>(n) /
        (wall_us * 1e-6);
  }
}

/// Start-up load from the shared cache: per iteration a fresh Workbench
/// loads the full bundle (no scheme), or a fresh ArtifactCache the
/// scheme's served artifacts. Info logging is muted inside the loop, so
/// the row times the reads.
void RunArtifactLoad(benchmark::State& state,
                     std::optional<core::Scheme> scheme) {
  SharedBench().BundleFor(kTrain);  // trains a cold cache, untimed
  const LogLevel level = GetLogLevel();
  SetLogLevel(LogLevel::kWarn);
  for (auto _ : state) {
    if (scheme) {
      const core::ArtifactCache cache(bench::PaperConfig());
      const auto served = cache.LoadServedArtifacts(kTrain, *scheme);
      OSAP_CHECK_MSG(served.has_value(),
                     "BM_ArtifactLoad: served artifacts not cached");
      benchmark::DoNotOptimize(served->agents.data());
    } else {
      core::Workbench bench(bench::PaperConfig());
      benchmark::DoNotOptimize(&bench.BundleFor(kTrain));
    }
  }
  SetLogLevel(level);
}

void BM_ArtifactLoadBundle(benchmark::State& state) {
  RunArtifactLoad(state, std::nullopt);
}
void BM_ArtifactLoadUs(benchmark::State& state) {
  RunArtifactLoad(state, core::Scheme::kNoveltyDetection);
}
void BM_ArtifactLoadUpi(benchmark::State& state) {
  RunArtifactLoad(state, core::Scheme::kAgentEnsemble);
}
void BM_ArtifactLoadUv(benchmark::State& state) {
  RunArtifactLoad(state, core::Scheme::kValueEnsemble);
}
void BM_ServeSequentialUs(benchmark::State& state) {
  RunSequential(state, core::Scheme::kNoveltyDetection);
}
void BM_ServeSequentialUpi(benchmark::State& state) {
  RunSequential(state, core::Scheme::kAgentEnsemble);
}
void BM_ServeSequentialUv(benchmark::State& state) {
  RunSequential(state, core::Scheme::kValueEnsemble);
}
void BM_ServeServiceUs(benchmark::State& state) {
  RunService(state, core::Scheme::kNoveltyDetection);
}
void BM_ServeServiceUpi(benchmark::State& state) {
  RunService(state, core::Scheme::kAgentEnsemble);
}
void BM_ServeServiceUv(benchmark::State& state) {
  RunService(state, core::Scheme::kValueEnsemble);
}
void BM_ServeServiceDefaultedUs(benchmark::State& state) {
  RunServiceDefaulted(state, core::Scheme::kNoveltyDetection);
}
void BM_ServeServiceDefaultedUpi(benchmark::State& state) {
  RunServiceDefaulted(state, core::Scheme::kAgentEnsemble);
}
void BM_ServeServiceDefaultedUv(benchmark::State& state) {
  RunServiceDefaulted(state, core::Scheme::kValueEnsemble);
}
void BM_ServeServiceSparseUs(benchmark::State& state) {
  RunServiceSparse(state, core::Scheme::kNoveltyDetection);
}
void BM_ServeServiceSparseUpi(benchmark::State& state) {
  RunServiceSparse(state, core::Scheme::kAgentEnsemble);
}
void BM_NetServeUs(benchmark::State& state) {
  RunNetServe(state, core::Scheme::kNoveltyDetection);
}
void BM_NetServeUpi(benchmark::State& state) {
  RunNetServe(state, core::Scheme::kAgentEnsemble);
}
void BM_NetServeUv(benchmark::State& state) {
  RunNetServe(state, core::Scheme::kValueEnsemble);
}
void BM_ServeServiceMemUs(benchmark::State& state) {
  RunServiceMem(state, core::Scheme::kNoveltyDetection);
}
void BM_ServeServiceMemUpi(benchmark::State& state) {
  RunServiceMem(state, core::Scheme::kAgentEnsemble);
}
void BM_ServeServiceMemUv(benchmark::State& state) {
  RunServiceMem(state, core::Scheme::kValueEnsemble);
}

BENCHMARK(BM_ServeSequentialUs)
    ->Arg(64)->Arg(256)->Arg(1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ServeSequentialUpi)
    ->Arg(64)->Arg(256)->Arg(1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ServeSequentialUv)
    ->Arg(64)->Arg(256)->Arg(1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ServeServiceUs)
    ->Args({64, 1})->Args({256, 1})->Args({1000, 1})->Args({1000, 4})
    ->Args({1000, 8})->Args({1000, 16})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ServeServiceUpi)
    ->Args({64, 1})->Args({256, 1})->Args({1000, 1})->Args({1000, 4})
    ->Args({1000, 8})->Args({1000, 16})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ServeServiceUv)
    ->Args({64, 1})->Args({256, 1})->Args({1000, 1})->Args({1000, 4})
    ->Args({1000, 8})->Args({1000, 16})
    ->Unit(benchmark::kMillisecond);
// Defaulted-share axis, named BM_ServeServiceDefaulted*/{sessions}/
// {defaulted %} (one shard).
BENCHMARK(BM_ServeServiceDefaultedUs)
    ->ArgsProduct({{64, 1000}, {0, 50, 90}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ServeServiceDefaultedUpi)
    ->ArgsProduct({{64, 1000}, {0, 50, 90}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ServeServiceDefaultedUv)
    ->ArgsProduct({{64, 1000}, {0, 50, 90}})
    ->Unit(benchmark::kMillisecond);
// Sparse-round axis, named BM_ServeServiceSparse*/{sessions}/{shards}:
// the edge's 1-2-request rounds on 2 shards (the
// BM_ServeService*/1000/{1,4} rows are the dense case, every shard busy).
BENCHMARK(BM_ServeServiceSparseUs)
    ->Args({64, 2})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ServeServiceSparseUpi)
    ->Args({64, 2})
    ->Unit(benchmark::kMicrosecond);
// Network-edge arm, named BM_NetServe*/{sessions}/{shards}/
// {edge_threads}. The single-edge points measure per-round wire overhead
// vs BM_ServeService; the Us /{1,2,4,8}-edge sweep at fixed shards is
// the multi-core edge scaling curve (Us is the cheapest signal, so the
// wire/edge share of a round is largest and the sweep isolates edge
// parallelism rather than model cost - upi/uv ride the identical code
// path). Open-loop connection fan-in lives in tools/osap_client against
// a live server.
BENCHMARK(BM_NetServeUs)
    ->Args({64, 1, 1})->Args({256, 1, 1})->Args({1000, 1, 1})
    ->Args({1000, 8, 1})
    ->Args({256, 8, 1})->Args({256, 8, 2})->Args({256, 8, 4})
    ->Args({256, 8, 8})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NetServeUpi)
    ->Args({64, 1, 1})->Args({256, 1, 1})->Args({1000, 1, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NetServeUv)
    ->Args({64, 1, 1})->Args({256, 1, 1})->Args({1000, 1, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ArtifactLoadBundle)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ArtifactLoadUs)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ArtifactLoadUpi)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ArtifactLoadUv)->Unit(benchmark::kMicrosecond);
// The 100k memory sweep: one deterministic iteration per point (the
// accounting does not jitter; timing is not what this measures).
BENCHMARK(BM_ServeServiceMemUs)
    ->Args({10000, 8})->Args({100000, 8})
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ServeServiceMemUpi)
    ->Args({10000, 8})->Args({100000, 8})
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ServeServiceMemUv)
    ->Args({10000, 8})->Args({100000, 8})
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

OSAP_BENCHMARK_MAIN_WITH_JSON("BENCH_serving.json")
