// osap_serve: load generator for the sharded decision service.
//
// Replays the six datasets' held-out test traces as N interleaved
// concurrent viewers: viewer i streams dataset i % 6, so every round mixes
// in-distribution (gamma_2_2-trained deployment) and out-of-distribution
// sessions. Each round every live viewer presents its current ABR state in
// ONE DecideBatch call; the returned action drives that viewer's
// environment forward. Finished viewers close their session and reopen on
// the dataset's next test trace (exercising slot recycling), so the
// population stays at N for the whole run.
//
// Usage:
//   osap_serve <us|upi|uv> [sessions] [rounds] [shards]
//              [--sessions N] [--rounds N] [--shards N]
//              [--revocable]
//   osap_serve <us|upi|uv> --listen PORT [--shards N] [--edge-threads N]
//              [--revocable] [--max-in-flight N]
//              [--lane-high-water N] [--max-sessions N]
//
// Defaults: 1000 sessions, 2000 rounds, 4 shards, permanent defaulting.
// The in-process generator is closed-loop (rounds issue back to back);
// for open-loop arrivals drive --listen with tools/osap_client.
//
// The server never trains: start-up loads only the signal's own artifacts
// from ./osap_cache (ArtifactCache::LoadServedArtifacts) and prints what
// it loaded and how long that took. A missing or unreadable served file
// prints the cache directory and the command that fills it, and exits 1.
//
// The U_pi / U_V thresholds served are the bundle's frozen alphas from
// the replay bisection (DESIGN.md §11), on every path.
//
// With --listen PORT the tool is instead the network-edge server
// (DESIGN.md §10): it binds the port (0 picks an ephemeral one, printed
// on stdout), serves the binary protocol until SIGINT/SIGTERM, then
// prints the edge counters and the process RSS. --edge-threads N runs N
// independent SO_REUSEPORT event loops, each owning a contiguous group
// of the service's shards (requires shards >= N). Drive it with
// tools/osap_client.
//
// Reports aggregate decisions/sec, round latency percentiles
// (p50/p99/p999), the service's exact per-session byte accounting, the
// process RSS now and at its peak, and a per-dataset table of completed
// sessions, defaulted share, and mean QoE - the OOD rows defaulting while
// the ID rows stay learned is the paper's safety story showing up under
// serving load.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "abr/abr_environment.h"
#include "core/artifacts.h"
#include "net/server.h"
#include "serve/decision_service.h"
#include "serve/serving_model.h"
#include "traces/dataset.h"
#include "util/arg_parser.h"
#include "util/rss.h"

using namespace osap;

namespace {

core::Scheme ParseSignal(const std::string& name, util::ArgParser& parser) {
  if (name == "us") return core::Scheme::kNoveltyDetection;
  if (name == "upi") return core::Scheme::kAgentEnsemble;
  if (name == "uv") return core::Scheme::kValueEnsemble;
  std::fprintf(stderr, "osap_serve: unknown signal '%s'\n%s\n", name.c_str(),
               parser.UsageLine().c_str());
  std::exit(2);
}

// SIGINT/SIGTERM -> Stop() (an atomic store plus one eventfd write, both
// async-signal-safe).
net::NetServer* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->Stop();
}

/// What a bundle holds plus the threshold `scheme` serves from it, e.g.
/// "1 agent, ocsvm" or "5 agents, alpha_pi".
std::string DescribeArtifacts(const core::TrainedBundle& bundle,
                              core::Scheme scheme) {
  const auto count = [](std::size_t n, const char* what) {
    return std::to_string(n) + " " + what + (n == 1 ? "" : "s");
  };
  std::string out = count(bundle.agents.size(), "agent");
  if (bundle.novelty != nullptr) out += ", ocsvm";
  if (!bundle.value_nets.empty()) {
    out += ", " + count(bundle.value_nets.size(), "value net");
  }
  if (scheme == core::Scheme::kAgentEnsemble) out += ", alpha_pi";
  if (scheme == core::Scheme::kValueEnsemble) out += ", alpha_v";
  return out;
}

/// One concurrent viewer: an environment streaming one test trace through
/// one service session.
struct Viewer {
  explicit Viewer(abr::AbrEnvironment e) : env(std::move(e)) {}
  abr::AbrEnvironment env;
  serve::DecisionService::SessionId session = 0;
  mdp::State state;
  std::size_t dataset = 0;      // index into AllDatasetIds()
  std::size_t next_trace = 0;   // cursor into that dataset's test split
  double qoe = 0.0;             // reward accumulated this session
};

struct DatasetStats {
  std::size_t completed = 0;
  std::size_t defaulted = 0;  // sessions that ended defaulted
  double qoe_sum = 0.0;
};

/// Nearest-rank quantile on an already sorted vector.
double Quantile(const std::vector<double>& sorted, double q) {
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  std::string signal_name;
  std::size_t sessions = 1000;
  std::size_t rounds = 2000;
  std::size_t shards = 4;
  bool revocable = false;
  constexpr std::size_t kNoListen = static_cast<std::size_t>(-1);
  std::size_t listen_port = kNoListen;
  std::size_t max_in_flight = 64 * 1024;
  std::size_t lane_high_water = 16 * 1024;
  std::size_t max_sessions = 1 << 20;
  std::size_t edge_threads = 1;

  util::ArgParser parser(
      "osap_serve",
      "Load generator for the sharded decision service, or (with --listen) "
      "the binary-protocol network-edge server.");
  parser.AddPositional("signal", "safety signal: us | upi | uv",
                       &signal_name);
  parser.AddOptionalPositional("sessions", "concurrent viewers (default "
                               "1000)", &sessions);
  parser.AddOptionalPositional("rounds", "decision rounds (default 2000)",
                               &rounds);
  parser.AddOptionalPositional("shards", "service shards (default 4)",
                               &shards);
  parser.AddOption("--sessions", "N", "concurrent viewers", &sessions);
  parser.AddOption("--rounds", "N", "decision rounds", &rounds);
  parser.AddOption("--shards", "N", "service shards", &shards);
  parser.AddFlag("--revocable", "revocable defaulting (default permanent)",
                 &revocable);
  parser.AddOption("--listen", "PORT",
                   "serve the binary protocol on PORT instead of generating "
                   "load (0 = ephemeral, printed on stdout)",
                   &listen_port);
  parser.AddOption("--max-in-flight", "N",
                   "server mode: BUSY past N admitted undecided STEPs",
                   &max_in_flight);
  parser.AddOption("--lane-high-water", "N",
                   "server mode: BUSY past N pending STEPs on one shard lane",
                   &lane_high_water);
  parser.AddOption("--max-sessions", "N",
                   "server mode: FULL past N open sessions", &max_sessions);
  parser.AddOption("--edge-threads", "N",
                   "server mode: independent SO_REUSEPORT event-loop "
                   "threads, each owning shards/N lanes (default 1)",
                   &edge_threads);
  if (!parser.Parse(argc, argv)) parser.ExitWithError();
  if (parser.HelpRequested()) parser.ExitWithHelp();
  const core::Scheme scheme = ParseSignal(signal_name, parser);
  const core::DefaultingMode mode = revocable
                                        ? core::DefaultingMode::kRevocable
                                        : core::DefaultingMode::kPermanent;
  if (sessions == 0 || rounds == 0 || shards == 0) {
    std::fprintf(stderr, "osap_serve: sessions/rounds/shards must be > 0\n");
    return 2;
  }
  if (listen_port != kNoListen && listen_port > 65535) {
    std::fprintf(stderr, "osap_serve: --listen PORT must be <= 65535\n");
    return 2;
  }
  if (edge_threads == 0 || edge_threads > shards) {
    std::fprintf(stderr,
                 "osap_serve: need 1 <= --edge-threads <= --shards "
                 "(one shard lane per edge minimum)\n");
    return 2;
  }
  const core::ArtifactCache cache{core::WorkbenchConfig{}};  // ./osap_cache
  constexpr auto kTrain = traces::DatasetId::kGamma22;
  const auto load_start = std::chrono::steady_clock::now();
  auto bundle = cache.LoadServedArtifacts(kTrain, scheme);
  const double load_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - load_start)
                             .count();
  if (!bundle) {
    std::fprintf(stderr,
                 "osap_serve: %s artifacts missing or unreadable in %s\n"
                 "osap_serve: fill the cache from this directory with "
                 "`osap_train gamma_2_2 <out.bin> ... --calibrate` or "
                 "`perfbench_replay --prepare`\n",
                 signal_name.c_str(),
                 std::filesystem::absolute(cache.BundleDir(kTrain)).c_str());
    return 1;
  }
  std::printf("osap_serve: loaded %s artifacts (%s) in %.1f ms\n",
              signal_name.c_str(), DescribeArtifacts(*bundle, scheme).c_str(),
              load_ms);
  core::SafeAgentConfig safety = cache.TriggerFor(scheme, *bundle);
  safety.mode = mode;
  auto model = serve::ServingModel::ForScheme(cache, scheme, *bundle, safety);
  bundle.reset();  // the model holds its own copy of every weight

  if (listen_port != kNoListen) {
    net::NetServerConfig net_cfg;
    net_cfg.port = static_cast<std::uint16_t>(listen_port);
    net_cfg.max_in_flight = max_in_flight;
    net_cfg.lane_high_water = lane_high_water;
    net_cfg.max_sessions = max_sessions;
    net_cfg.edge_threads = edge_threads;
    net_cfg.service.shard_count = shards;
    net::NetServer server(model, net_cfg);
    server.Start();
    g_server = &server;
    std::signal(SIGINT, HandleSignal);
    std::signal(SIGTERM, HandleSignal);
    std::printf("osap_serve: %s, %zu shard(s), %zu edge(s), "
                "listening on port %u\n",
                signal_name.c_str(), shards, edge_threads, server.Port());
    std::fflush(stdout);
    struct rusage ru_before {};
    getrusage(RUSAGE_SELF, &ru_before);
    server.Run();
    g_server = nullptr;
    struct rusage ru_after {};
    getrusage(RUSAGE_SELF, &ru_after);
    const net::ServerStats s = server.Stats();
    std::printf("\nshutdown: %llu decided, %llu busy, %llu rejected opens, "
                "%llu errors, %llu epochs, %llu sessions open\n",
                static_cast<unsigned long long>(s.decided),
                static_cast<unsigned long long>(s.busy),
                static_cast<unsigned long long>(s.rejected_opens),
                static_cast<unsigned long long>(s.errors),
                static_cast<unsigned long long>(s.epochs),
                static_cast<unsigned long long>(s.open_sessions));
    // The edge's syscall budget per decision. The "epoll backend" field
    // stays: perfbench/wire.cc parses this line's full shape.
    const std::uint64_t syscalls = server.IoSyscalls();
    const long vcsw = ru_after.ru_nvcsw - ru_before.ru_nvcsw;
    const long ivcsw = ru_after.ru_nivcsw - ru_before.ru_nivcsw;
    std::printf("io: epoll backend, %llu syscalls (%.2f per decision), "
                "%ld voluntary + %ld involuntary context switches\n",
                static_cast<unsigned long long>(syscalls),
                s.decided == 0 ? 0.0
                               : static_cast<double>(syscalls) /
                                     static_cast<double>(s.decided),
                vcsw, ivcsw);
    const std::size_t rss_now = util::CurrentRssBytes();
    const std::size_t rss_peak = std::max(rss_now, util::PeakRssBytes());
    std::printf("process RSS: %.1f MiB now, %.1f MiB peak\n",
                static_cast<double>(rss_now) / (1024.0 * 1024.0),
                static_cast<double>(rss_peak) / (1024.0 * 1024.0));
    return 0;
  }

  serve::DecisionServiceConfig service_cfg;
  service_cfg.shard_count = shards;
  serve::DecisionService service(model, service_cfg);

  const std::vector<traces::DatasetId> datasets = traces::AllDatasetIds();
  std::vector<traces::Dataset> splits;
  for (traces::DatasetId id : datasets) {
    splits.push_back(traces::BuildDataset(id, cache.config().dataset));
  }
  const abr::AbrEnvironment eval_env = cache.MakeEvalEnvironment();
  // Opens a session for `v` on its dataset's next test trace.
  const auto start_session = [&](Viewer& v) {
    const auto& tests = splits[v.dataset].test;
    v.env.SetFixedTrace(tests[v.next_trace]);
    v.next_trace = (v.next_trace + 1) % tests.size();
    v.state = v.env.Reset();
    v.qoe = 0.0;
    v.session = service.OpenSession();
  };
  std::vector<DatasetStats> stats(datasets.size());
  std::vector<Viewer> viewers;
  viewers.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    Viewer& v = viewers.emplace_back(eval_env);
    v.dataset = i % datasets.size();
    v.next_trace = (i / datasets.size()) % splits[v.dataset].test.size();
    start_session(v);
  }
  std::printf("osap_serve: %s, %zu viewers over %zu datasets, %zu rounds, "
              "%zu shard(s), %s defaulting, closed-loop\n",
              signal_name.c_str(), sessions, datasets.size(), rounds, shards,
              mode == core::DefaultingMode::kPermanent ? "permanent"
                                                       : "revocable");

  std::vector<serve::DecisionService::Request> requests(sessions);
  std::vector<mdp::Action> actions(sessions);
  std::vector<double> round_us;  // DecideBatch latency per round
  round_us.reserve(rounds);
  double decide_seconds = 0.0;
  const auto wall_start = std::chrono::steady_clock::now();
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < sessions; ++i) {
      requests[i] = {viewers[i].session, &viewers[i].state};
    }
    const auto t0 = std::chrono::steady_clock::now();
    service.DecideBatch(requests, actions);
    const auto t1 = std::chrono::steady_clock::now();
    round_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    decide_seconds += std::chrono::duration<double>(t1 - t0).count();

    for (std::size_t i = 0; i < sessions; ++i) {
      Viewer& v = viewers[i];
      mdp::StepResult r = v.env.Step(actions[i]);
      v.qoe += r.reward;
      if (!r.done) {
        v.state = std::move(r.next_state);
        continue;
      }
      DatasetStats& d = stats[v.dataset];
      ++d.completed;
      d.defaulted += service.Defaulted(v.session) ? 1 : 0;
      d.qoe_sum += v.qoe;
      service.CloseSession(v.session);
      start_session(v);  // recycles the freed slot
    }
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  const double decisions =
      static_cast<double>(sessions) * static_cast<double>(rounds);
  std::sort(round_us.begin(), round_us.end());
  std::printf("\n%.0f decisions in %.1f s wall (%.0f decisions/s; "
              "%.0f/s inside DecideBatch)\n",
              decisions, wall_seconds, decisions / wall_seconds,
              decisions / decide_seconds);
  std::printf("DecideBatch latency: p50 %.0f us  p99 %.0f us  p999 %.0f us  "
              "max %.0f us (%zu-session rounds)\n",
              Quantile(round_us, 0.50), Quantile(round_us, 0.99),
              Quantile(round_us, 0.999), round_us.back(), sessions);
  // Per-decision view of the same distribution: what one viewer pays for
  // its slice of a round (the population is constant, so this is the
  // round latency amortized over the batch).
  const double per_decision = 1.0 / static_cast<double>(sessions);
  std::printf("per-decision latency: p50 %.2f us  p99 %.2f us  max %.2f us\n",
              Quantile(round_us, 0.50) * per_decision,
              Quantile(round_us, 0.99) * per_decision,
              round_us.back() * per_decision);

  // Exact accounting of the service's own memory next to the process-level
  // view: bytes/session is what the slab/SoA layout controls, RSS is what
  // the operator sees.
  const serve::ServiceMemoryStats mem = service.MemoryStats();
  std::printf("\nsession memory: %.1f bytes/session over %zu sessions "
              "(%zu slots)\n",
              mem.BytesPerSession(), mem.open_sessions, mem.session_slots);
  std::printf("  hot %zu B  cold %zu B  rings %zu B  extractors %zu B  "
              "registry %zu B  shard scratch %.1f KiB\n",
              mem.session_hot_bytes, mem.session_cold_bytes,
              mem.trigger_ring_bytes, mem.extractor_bytes,
              mem.registry_bytes,
              static_cast<double>(mem.scratch_bytes) / 1024.0);
  // VmHWM can lag a page or two behind a just-grown VmRSS; clamp so the
  // peak never prints below the current value.
  const std::size_t rss_now = util::CurrentRssBytes();
  const std::size_t rss_peak = std::max(rss_now, util::PeakRssBytes());
  std::printf("process RSS: %.1f MiB now, %.1f MiB peak\n",
              static_cast<double>(rss_now) / (1024.0 * 1024.0),
              static_cast<double>(rss_peak) / (1024.0 * 1024.0));

  std::printf("\n%-28s %10s %10s %10s\n", "dataset", "sessions", "defaulted",
              "mean QoE");
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    const DatasetStats& s = stats[d];
    if (s.completed == 0) {
      std::printf("%-28s %10s %10s %10s\n",
                  traces::DatasetLabel(datasets[d]).c_str(), "-", "-", "-");
      continue;
    }
    std::printf("%-28s %10zu %9.0f%% %10.1f\n",
                traces::DatasetLabel(datasets[d]).c_str(), s.completed,
                100.0 * static_cast<double>(s.defaulted) /
                    static_cast<double>(s.completed),
                s.qoe_sum / static_cast<double>(s.completed));
  }
  return 0;
}
