// osap_client: open-loop load generator for the network edge.
//
// Drives an `osap_serve` server over N TCP connections (one worker
// thread each - with a SO_REUSEPORT multi-edge server every connection
// lands on some edge's listener), each carrying an equal share of the
// session population.
//
// Two session modes:
//
//   default        Every session is a real ABR viewer: a local
//                  AbrEnvironment streams one of the six datasets'
//                  held-out test traces (dataset i % 6, mixing ID and
//                  OOD), the server's decision drives the environment
//                  forward, and finished sessions reopen on the next
//                  trace (after the round's last reply) so the
//                  population stays constant. ~6 KB of client memory
//                  per session. Each finished session adds its QoE and
//                  its last reply's defaulted flag to its dataset's row
//                  of the closing table: sessions, defaulted share and
//                  mean QoE per dataset - the OOD rows defaulting while
//                  the ID rows stay learned is the paper's safety story
//                  served over the wire.
//
//   --replay K     The million-session mode: K state SEQUENCES are
//                  recorded up front from real environments (same
//                  dataset mix, fixed action), shared read-only by every
//                  session - session i replays sequence i % K. A live
//                  session is then just an id (8 bytes), so the CLIENT
//                  fits 100k-1M open sessions while the server still
//                  sees distinct sessions with well-formed, distinct
//                  state streams. Opens and closes are pipelined in
//                  bursts; decisions do not feed back into the states.
//
// The arrival process is OPEN-LOOP: step r of every session is scheduled
// at t0 + r * sessions/RATE (an aggregate RATE decisions/s across the
// whole population), and each reply's latency is measured from that
// SCHEDULED send time - a server that falls behind accrues queueing
// delay in the reported percentiles instead of silently slowing the
// arrival clock down (no coordinated omission). Within a connection a
// round's STEPs are pipelined (flushed and collected in bounded chunks,
// so a million-session round cannot grow an unbounded write buffer).
//
// BUSY replies leave the viewer where it is (the same state is resent
// next round in default mode) and are counted separately; any ERROR
// status or transport failure counts as a protocol error. Exit status is
// nonzero when any protocol error occurred.
//
// With --affinity (pairs with the server's --edge-threads) each worker
// PINS its connection to one edge: session ids are edge-affine on the
// server (id % shards -> lane -> contiguous group -> edge), so a session
// must be stepped on a connection owned by its edge, and which edge a
// fresh connection lands on is the kernel's 4-tuple hash. The worker
// dials, opens a throwaway probe session, derives the edge from the
// granted id, and redials until it holds a connection on its target edge
// (worker w -> edge w % edges, a coupon-collector loop). Every session
// the worker then opens is granted BY that edge, so its OPEN/STEP/CLOSE
// traffic is edge-affine by construction and every edge carries load
// even when the hash would have piled all connections onto one listener.
// Requires --shards and --edges to match the server.
//
// Datasets, the eval video and the state layout come from the default
// WorkbenchConfig through core::ArtifactCache, the same derivation the
// server's model is built for; the client reads no cached file.
//
// Usage:
//   osap_client <host> <port> [--threads N] [--sessions N] [--rate RATE]
//               [--rounds N] [--replay K] [--affinity --shards N --edges N]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "abr/abr_environment.h"
#include "core/artifacts.h"
#include "net/client.h"
#include "serve/decision_service.h"
#include "traces/dataset.h"
#include "util/arg_parser.h"
#include "util/rss.h"

using namespace osap;

namespace {

using Clock = std::chrono::steady_clock;

/// One concurrent viewer driven over the wire (default mode).
struct Viewer {
  explicit Viewer(abr::AbrEnvironment e) : env(std::move(e)) {}
  abr::AbrEnvironment env;
  std::uint64_t session = 0;
  mdp::State state;
  std::size_t dataset = 0;
  std::size_t next_trace = 0;
  double qoe = 0.0;        // reward accumulated this session
  bool defaulted = false;  // the last OK reply's kFlagDefaulted
};

/// Finished default-mode sessions of one dataset.
struct DatasetStats {
  std::uint64_t completed = 0;
  std::uint64_t defaulted = 0;  // sessions whose last reply was defaulted
  double qoe_sum = 0.0;
};

struct WorkerResult {
  std::vector<double> latency_us;  // from scheduled send to reply
  std::uint64_t ok = 0;
  std::uint64_t busy = 0;
  std::uint64_t errors = 0;
  std::uint64_t open_sessions = 0;  // replay mode: opened on this conn
  std::vector<DatasetStats> datasets;  // default mode, by dataset index
};

double Quantile(const std::vector<double>& sorted, double q) {
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Replay mode's shared state pool: `k` sequences of up to `len` states
/// each, recorded by streaming real test traces under a fixed action
/// (the recorded states are well-formed inputs; what the server decides
/// about them never feeds back). Read-only after construction.
std::vector<std::vector<mdp::State>> RecordSequences(
    const std::vector<traces::Dataset>& datasets,
    const abr::AbrEnvironment& eval_env, std::size_t k, std::size_t len) {
  std::vector<std::vector<mdp::State>> sequences;
  sequences.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    const traces::Dataset& dataset = datasets[s % datasets.size()];
    const auto& tests = dataset.test;
    std::size_t trace = (s / datasets.size()) % tests.size();
    abr::AbrEnvironment env = eval_env;
    env.SetFixedTrace(tests[trace]);
    std::vector<mdp::State> seq;
    seq.reserve(len);
    mdp::State state = env.Reset();
    while (seq.size() < len) {
      seq.push_back(state);
      mdp::StepResult r = env.Step(0);
      if (r.done) {
        trace = (trace + 1) % tests.size();
        env.SetFixedTrace(tests[trace]);
        state = env.Reset();
      } else {
        state = std::move(r.next_state);
      }
    }
    sequences.push_back(std::move(seq));
  }
  return sequences;
}

/// Redials until `client` holds a connection on `target_edge`, detected
/// by opening a throwaway probe session and deriving the edge from the
/// granted id (ids are edge-affine: id % shards lands in the opening
/// edge's group). Each redial gets a fresh ephemeral port, so the
/// kernel's 4-tuple hash re-rolls - a coupon-collector loop that needs
/// ~edges * ln(edges) attempts in expectation. Throws after `attempts`
/// misses.
void AcquireEdge(net::Client& client, const std::string& host,
                 std::uint16_t port, std::size_t target_edge,
                 std::size_t shards, std::size_t edges,
                 std::size_t attempts = 512) {
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (!client.Connected()) client.Connect(host, port);
    const std::uint64_t probe = client.OpenSession();
    const std::size_t edge = serve::DecisionService::GroupOfShard(
        static_cast<std::size_t>(probe % shards), shards, edges);
    client.CloseSession(probe);
    if (edge == target_edge) return;
    client.Close();  // reconnect re-rolls the 4-tuple hash
  }
  throw std::runtime_error(
      "edge affinity: target edge not reached (do --shards/--edges match "
      "the server?)");
}

/// Pipelined burst of OPEN_SESSIONs; non-OK opens count as errors and
/// leave the population smaller. Returns the granted session ids.
std::vector<std::uint64_t> OpenBurst(net::Client& client, std::size_t count,
                                     WorkerResult& res) {
  constexpr std::size_t kBurst = 1024;
  std::vector<std::uint64_t> sessions;
  sessions.reserve(count);
  std::uint64_t rid = 0;
  std::size_t opened = 0;
  while (opened < count) {
    const std::size_t burst = std::min(kBurst, count - opened);
    for (std::size_t i = 0; i < burst; ++i) client.SendOpen(++rid);
    client.Flush();
    for (std::size_t i = 0; i < burst; ++i) {
      net::Reply reply;
      if (!client.ReadReply(reply)) {
        throw std::runtime_error("server closed during session opens");
      }
      if (reply.status == net::Status::kOk) {
        sessions.push_back(reply.session_id);
      } else {
        ++res.errors;  // kFull against the sweep's population is a misrun
      }
    }
    opened += burst;
  }
  res.open_sessions = sessions.size();
  return sessions;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host;
  std::size_t port = 0;
  std::size_t connections = 4;
  std::size_t sessions = 64;
  double rate = 1000.0;  // aggregate decisions/s over the population
  std::size_t rounds = 200;
  std::size_t replay = 0;  // 0 = full per-session environments
  bool affinity = false;
  std::size_t shards = 0;  // server shard count (required with --affinity)
  std::size_t edges = 0;   // server edge count (required with --affinity)

  util::ArgParser parser(
      "osap_client",
      "Open-loop load generator for the osap_serve network edge: "
      "scheduled arrivals over N connections, latency measured from the "
      "scheduled send (no coordinated omission).");
  parser.AddPositional("host", "server address (e.g. 127.0.0.1)", &host);
  parser.AddPositional("port", "server port", &port);
  parser.AddOption("--threads", "N",
                   "worker threads, one TCP connection each (default 4; "
                   "pairs with the server's --edge-threads)",
                   &connections);
  parser.AddOption("--sessions", "N",
                   "total concurrent sessions across all connections "
                   "(default 64)",
                   &sessions);
  parser.AddOption("--rate", "RATE",
                   "aggregate scheduled arrival rate in decisions/s "
                   "(default 1000)",
                   &rate);
  parser.AddOption("--rounds", "N",
                   "steps scheduled per session (default 200)", &rounds);
  parser.AddOption("--replay", "K",
                   "share K recorded state sequences across all sessions "
                   "instead of one environment per session (the 100k-1M "
                   "session mode); 0 = full environments (default)",
                   &replay);
  parser.AddFlag("--affinity",
                 "pin worker w's connection to edge w % edges by probe-"
                 "and-redial (multi-edge servers; needs --shards/--edges "
                 "matching the server)",
                 &affinity);
  parser.AddOption("--shards", "N",
                   "server's shard count (required with --affinity)",
                   &shards);
  parser.AddOption("--edges", "N",
                   "server's --edge-threads count (required with "
                   "--affinity)",
                   &edges);
  if (!parser.Parse(argc, argv)) parser.ExitWithError();
  if (parser.HelpRequested()) parser.ExitWithHelp();
  if (port == 0 || port > 65535) {
    std::fprintf(stderr, "osap_client: port must be 1..65535\n");
    return 2;
  }
  if (connections == 0 || sessions < connections || rounds == 0 ||
      !(rate > 0.0)) {
    std::fprintf(stderr,
                 "osap_client: need threads >= 1, sessions >= threads, "
                 "rounds >= 1, rate > 0\n");
    return 2;
  }
  if (affinity && (shards == 0 || edges == 0 || shards < edges)) {
    std::fprintf(stderr,
                 "osap_client: --affinity needs --shards >= --edges >= 1 "
                 "matching the server\n");
    return 2;
  }

  // Build the datasets and the eval environment once, from the config
  // the server's model is built for; worker threads only read them.
  const core::ArtifactCache cache{core::WorkbenchConfig{}};
  const std::vector<traces::DatasetId> dataset_ids = traces::AllDatasetIds();
  std::vector<traces::Dataset> datasets;
  datasets.reserve(dataset_ids.size());
  for (traces::DatasetId id : dataset_ids) {
    datasets.push_back(traces::BuildDataset(id, cache.config().dataset));
  }
  const abr::AbrEnvironment eval_env = cache.MakeEvalEnvironment();

  // Replay pool: recorded once, shared read-only by every worker. Long
  // runs cycle the sequences (round r sends state r % length).
  std::vector<std::vector<mdp::State>> sequences;
  if (replay > 0) {
    sequences = RecordSequences(datasets, eval_env, replay,
                                std::min<std::size_t>(rounds, 256));
  }

  // One round steps every session once: with an aggregate arrival rate of
  // RATE decisions/s, round r of every session is scheduled at
  // t0 + r * sessions/RATE.
  const double round_interval_s = static_cast<double>(sessions) / rate;
  std::printf("osap_client: %zu sessions over %zu connections -> %s:%zu, "
              "%zu rounds, open-loop %.0f decisions/s "
              "(round every %.2f ms)%s\n",
              sessions, connections, host.c_str(), port, rounds, rate,
              round_interval_s * 1e3,
              replay > 0 ? ", replay mode" : "");
  if (affinity) {
    std::printf("edge affinity: worker w -> edge w %% %zu over %zu "
                "shards\n",
                edges, shards);
  }

  std::vector<WorkerResult> results(connections);
  const auto t0 = Clock::now() + std::chrono::milliseconds(50);
  std::vector<std::thread> workers;
  workers.reserve(connections);
  for (std::size_t w = 0; w < connections; ++w) {
    workers.emplace_back([&, w] {
      WorkerResult& res = results[w];
      // Connection w owns sessions with global index i where
      // i % connections == w.
      std::size_t local_count = sessions / connections +
                                (w < sessions % connections ? 1 : 0);
      net::Client client;
      try {
        client.Connect(host, static_cast<std::uint16_t>(port));
        if (affinity) {
          // Sessions are edge-affine on the server; pin this worker's
          // connection to its target edge so the sessions it opens (and
          // every STEP/CLOSE they send) belong there by construction.
          AcquireEdge(client, host, static_cast<std::uint16_t>(port),
                      w % edges, shards, edges);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "osap_client: %s\n", e.what());
        res.errors += local_count * rounds;
        return;
      }

      if (replay > 0) {
        // --- replay mode: sessions are ids over shared sequences -------
        try {
          const std::vector<std::uint64_t> ids =
              OpenBurst(client, local_count, res);
          res.latency_us.reserve(ids.size() * rounds);
          // STEP bursts are chunked: a million-session round pipelined in
          // one flush would grow the write buffer (and the server's reply
          // queue) without bound; 4096-frame chunks bound both while
          // keeping the wire full.
          constexpr std::size_t kChunk = 4096;
          std::uint64_t rid = 1 << 20;
          for (std::size_t round = 0; round < rounds; ++round) {
            const auto scheduled =
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             static_cast<double>(round) * round_interval_s));
            std::this_thread::sleep_until(scheduled);
            for (std::size_t base = 0; base < ids.size(); base += kChunk) {
              const std::size_t n = std::min(kChunk, ids.size() - base);
              for (std::size_t v = 0; v < n; ++v) {
                const std::size_t global = w + (base + v) * connections;
                const auto& seq = sequences[global % sequences.size()];
                client.SendStep(++rid, ids[base + v],
                                seq[round % seq.size()]);
              }
              client.Flush();
              for (std::size_t v = 0; v < n; ++v) {
                net::Reply reply;
                if (!client.ReadReply(reply)) {
                  throw std::runtime_error("server closed the connection");
                }
                res.latency_us.push_back(
                    std::chrono::duration<double, std::micro>(Clock::now() -
                                                              scheduled)
                        .count());
                if (reply.status == net::Status::kOk) {
                  ++res.ok;
                } else if (reply.status == net::Status::kBusy) {
                  ++res.busy;
                } else {
                  ++res.errors;
                }
              }
            }
          }
          // Pipelined close of the whole population.
          for (std::size_t base = 0; base < ids.size(); base += kChunk) {
            const std::size_t n = std::min(kChunk, ids.size() - base);
            for (std::size_t v = 0; v < n; ++v) {
              client.SendClose(++rid, ids[base + v]);
            }
            client.Flush();
            for (std::size_t v = 0; v < n; ++v) {
              net::Reply reply;
              if (!client.ReadReply(reply)) {
                throw std::runtime_error("server closed during closes");
              }
              if (reply.status != net::Status::kOk) ++res.errors;
            }
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "osap_client: %s\n", e.what());
          ++res.errors;
        }
        return;
      }

      // --- default mode: one real environment per session --------------
      res.datasets.resize(datasets.size());
      std::vector<Viewer> viewers;
      viewers.reserve(local_count);
      try {
        for (std::size_t v = 0; v < local_count; ++v) {
          const std::size_t global = w + v * connections;
          Viewer viewer(eval_env);
          viewer.dataset = global % datasets.size();
          const auto& tests = datasets[viewer.dataset].test;
          viewer.next_trace = (global / datasets.size()) % tests.size();
          viewer.env.SetFixedTrace(tests[viewer.next_trace]);
          viewer.next_trace = (viewer.next_trace + 1) % tests.size();
          viewer.state = viewer.env.Reset();
          viewer.session = client.OpenSession();
          viewers.push_back(std::move(viewer));
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "osap_client: open: %s\n", e.what());
        res.errors += local_count * rounds;
        return;
      }
      res.open_sessions = viewers.size();
      res.latency_us.reserve(local_count * rounds);
      // STEP ids carry the top bit, so they never meet the ids the
      // blocking OpenSession/CloseSession draw from the client's own
      // counter (which counts up from 1).
      constexpr std::uint64_t kStepIdBase = std::uint64_t{1} << 63;
      std::vector<std::size_t> finished;
      try {
        for (std::size_t round = 0; round < rounds; ++round) {
          const auto scheduled =
              t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(round) * round_interval_s));
          std::this_thread::sleep_until(scheduled);
          // Pipeline the whole round: encode every session's STEP, one
          // flush, then collect the replies in arrival order.
          for (std::size_t v = 0; v < viewers.size(); ++v) {
            client.SendStep(kStepIdBase + round * viewers.size() + v,
                            viewers[v].session, viewers[v].state);
          }
          client.Flush();
          for (std::size_t v = 0; v < viewers.size(); ++v) {
            net::Reply reply;
            if (!client.ReadReply(reply)) {
              throw std::runtime_error("server closed the connection");
            }
            const auto now = Clock::now();
            res.latency_us.push_back(
                std::chrono::duration<double, std::micro>(now - scheduled)
                    .count());
            // Match the reply to its viewer by the echoed request_id.
            const std::uint64_t seq = reply.request_id - kStepIdBase;
            if (seq / viewers.size() != round) {
              ++res.errors;
              continue;
            }
            Viewer& viewer = viewers[seq % viewers.size()];
            if (reply.status == net::Status::kBusy) {
              ++res.busy;  // resend the same state next round
              continue;
            }
            if (reply.status != net::Status::kOk) {
              ++res.errors;
              continue;
            }
            ++res.ok;
            viewer.defaulted = reply.Defaulted();
            mdp::StepResult r = viewer.env.Step(
                static_cast<mdp::Action>(reply.action));
            viewer.qoe += r.reward;
            if (!r.done) {
              viewer.state = std::move(r.next_state);
              continue;
            }
            finished.push_back(seq % viewers.size());
          }
          // Tally and reopen finished viewers only after the round's last
          // reply (a blocking round trip issued mid-round would read one
          // of the round's pipelined STEP replies as its own), in viewer
          // order, so the QoE sums do not depend on reply arrival order.
          std::sort(finished.begin(), finished.end());
          for (const std::size_t v : finished) {
            Viewer& viewer = viewers[v];
            DatasetStats& d = res.datasets[viewer.dataset];
            ++d.completed;
            d.defaulted += viewer.defaulted ? 1 : 0;
            d.qoe_sum += viewer.qoe;
            client.CloseSession(viewer.session);
            const auto& tests = datasets[viewer.dataset].test;
            viewer.env.SetFixedTrace(tests[viewer.next_trace]);
            viewer.next_trace = (viewer.next_trace + 1) % tests.size();
            viewer.state = viewer.env.Reset();
            viewer.qoe = 0.0;
            viewer.session = client.OpenSession();
          }
          finished.clear();
        }
        for (Viewer& viewer : viewers) client.CloseSession(viewer.session);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "osap_client: %s\n", e.what());
        ++res.errors;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  std::vector<double> latency;
  std::uint64_t ok = 0;
  std::uint64_t busy = 0;
  std::uint64_t errors = 0;
  std::uint64_t completed = 0;
  std::uint64_t opened = 0;
  std::vector<DatasetStats> stats(datasets.size());
  for (const WorkerResult& res : results) {
    latency.insert(latency.end(), res.latency_us.begin(),
                   res.latency_us.end());
    ok += res.ok;
    busy += res.busy;
    errors += res.errors;
    opened += res.open_sessions;
    for (std::size_t d = 0; d < res.datasets.size(); ++d) {
      stats[d].completed += res.datasets[d].completed;
      stats[d].defaulted += res.datasets[d].defaulted;
      stats[d].qoe_sum += res.datasets[d].qoe_sum;
      completed += res.datasets[d].completed;
    }
  }
  if (latency.empty()) {
    std::fprintf(stderr, "osap_client: no replies received\n");
    return 1;
  }
  std::sort(latency.begin(), latency.end());
  std::printf("\n%llu ok, %llu busy, %llu protocol errors, "
              "%llu sessions open%s, %llu completed in %.1f s "
              "(%.0f decisions/s achieved)\n",
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(busy),
              static_cast<unsigned long long>(errors),
              static_cast<unsigned long long>(opened),
              replay > 0 ? " (replay)" : "",
              static_cast<unsigned long long>(completed), wall_s,
              static_cast<double>(ok) / wall_s);
  std::printf("latency from scheduled send: p50 %.0f us  p99 %.0f us  "
              "p999 %.0f us  max %.0f us\n",
              Quantile(latency, 0.50), Quantile(latency, 0.99),
              Quantile(latency, 0.999), latency.back());
  // The client's own footprint matters in replay mode: 1M sessions must
  // fit beside the server on one host (the latency sample buffer
  // dominates - sessions themselves are 8 bytes each).
  const std::size_t rss_now = util::CurrentRssBytes();
  std::printf("client RSS: %.1f MiB\n",
              static_cast<double>(rss_now) / (1024.0 * 1024.0));

  if (replay == 0) {
    std::printf("\n%-28s %10s %10s %10s\n", "dataset", "sessions",
                "defaulted", "mean QoE");
    for (std::size_t d = 0; d < dataset_ids.size(); ++d) {
      const DatasetStats& s = stats[d];
      const std::string label = traces::DatasetLabel(dataset_ids[d]);
      if (s.completed == 0) {
        std::printf("%-28s %10s %10s %10s\n", label.c_str(), "-", "-", "-");
        continue;
      }
      const double n = static_cast<double>(s.completed);
      std::printf("%-28s %10llu %9.0f%% %10.1f\n", label.c_str(),
                  static_cast<unsigned long long>(s.completed),
                  100.0 * static_cast<double>(s.defaulted) / n,
                  s.qoe_sum / n);
    }
  }
  return errors == 0 ? 0 : 1;
}
