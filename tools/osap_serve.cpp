// osap_serve: the binary-protocol network-edge server for the sharded
// decision service (DESIGN.md §10).
//
// Usage:
//   osap_serve <us|upi|uv> [--listen PORT] [--edge-threads N]
//              [--revocable] [--max-in-flight N] [--max-sessions N]
//
// Binds PORT (default 0: an ephemeral port, printed on stdout), serves
// until SIGINT/SIGTERM, then prints the edge counters, the IO syscall
// budget and the process RSS. A PORT another process listens on is an
// error (exit 1). Defaults: 1 edge, permanent defaulting.
// --edge-threads N runs N independent event loops, each owning one shard
// of the service; edge 0 accepts every connection and places it on the
// edge with the fewest open connections. --shards N is still accepted
// and has no effect (perfbench/wire.cc passes it). Overload gets
// answers, not queues: a STEP past --max-in-flight admitted, undecided
// STEPs is answered BUSY, an OPEN past --max-sessions open sessions FULL,
// and a connection whose admitted backlog or unsent replies pile up stops
// being read until they halve, so TCP blocks a client that sends without
// reading. tools/osap_client is
// the load generator: its
// default mode streams the six datasets' test traces as viewers and
// prints the per-dataset defaulted / mean-QoE table.
//
// The server never trains: start-up loads only the signal's own artifacts
// from ./osap_cache (ArtifactCache::LoadServedArtifacts) and prints what
// it loaded and how long that took. A missing or unreadable served file
// prints the cache directory and the command that fills it, and exits 1.
//
// The U_pi / U_V thresholds served are the bundle's frozen alphas from
// the replay bisection (DESIGN.md §11).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "core/artifacts.h"
#include "net/server.h"
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

}  // namespace

int main(int argc, char** argv) {
  std::string signal_name;
  std::size_t shards = 0;  // accepted, unread
  bool revocable = false;
  std::size_t listen_port = 0;
  std::size_t max_in_flight = 64 * 1024;
  std::size_t max_sessions = 1 << 20;
  std::size_t edge_threads = 1;

  util::ArgParser parser(
      "osap_serve",
      "Binary-protocol network-edge server for the sharded decision "
      "service; drive it with osap_client.");
  parser.AddPositional("signal", "safety signal: us | upi | uv",
                       &signal_name);
  parser.AddOption("--shards", "N",
                   "no effect: one shard per edge thread (accepted until "
                   "the next benchmark change drops it)",
                   &shards);
  parser.AddFlag("--revocable", "revocable defaulting (default permanent)",
                 &revocable);
  parser.AddOption("--listen", "PORT",
                   "serve the binary protocol on PORT (default 0 = "
                   "ephemeral, printed on stdout)",
                   &listen_port);
  parser.AddOption("--max-in-flight", "N",
                   "BUSY past N admitted undecided STEPs", &max_in_flight);
  parser.AddOption("--max-sessions", "N", "FULL past N open sessions",
                   &max_sessions);
  parser.AddOption("--edge-threads", "N",
                   "independent event-loop threads, each owning one "
                   "shard; connections go to the least loaded (default 1)",
                   &edge_threads);
  if (!parser.Parse(argc, argv)) parser.ExitWithError();
  if (parser.HelpRequested()) parser.ExitWithHelp();
  const core::Scheme scheme = ParseSignal(signal_name, parser);
  if (listen_port > 65535) {
    std::fprintf(stderr, "osap_serve: --listen PORT must be <= 65535\n");
    return 2;
  }
  if (edge_threads == 0) {
    std::fprintf(stderr, "osap_serve: --edge-threads must be >= 1\n");
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
  safety.mode = revocable ? core::DefaultingMode::kRevocable
                          : core::DefaultingMode::kPermanent;
  auto model = serve::ServingModel::ForScheme(cache, scheme, *bundle, safety);
  bundle.reset();  // the model holds its own copy of every weight

  net::NetServerConfig net_cfg;
  net_cfg.port = static_cast<std::uint16_t>(listen_port);
  net_cfg.max_in_flight = max_in_flight;
  net_cfg.max_sessions = max_sessions;
  net_cfg.edge_threads = edge_threads;
  net::NetServer server(model, net_cfg);
  try {
    server.Start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "osap_serve: %s\n", e.what());
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::printf("osap_serve: %s, %zu edge(s), listening on port %u\n",
              signal_name.c_str(), edge_threads, server.Port());
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
  // VmHWM can lag a page or two behind a just-grown VmRSS; clamp so the
  // peak never prints below the current value.
  const std::size_t rss_now = util::CurrentRssBytes();
  const std::size_t rss_peak = std::max(rss_now, util::PeakRssBytes());
  std::printf("process RSS: %.1f MiB now, %.1f MiB peak\n",
              static_cast<double>(rss_now) / (1024.0 * 1024.0),
              static_cast<double>(rss_peak) / (1024.0 * 1024.0));
  return 0;
}
