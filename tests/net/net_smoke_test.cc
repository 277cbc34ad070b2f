// Network-edge concurrency smoke (runs under the sanitize label, so the
// TSan suite checks it): one NetServer event loop plus several in-process
// client threads hammering it over loopback with session churn
// mid-connection - open, step a few times, close, reopen - plus a
// mid-run STATS reader. The assertions are deliberately coarse (every
// request answered, zero protocol errors besides the expected ones); the
// point is the interleaving, not the values.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include "abr/abr_environment.h"
#include "net/client.h"
#include "net/server.h"
#include "testing/defaulting_oracle.h"

namespace osap::net {
namespace {

using testing::ModelFor;
using testing::ServerRunner;
using testing::ServeWorld;
using testing::SharedServeWorld;

TEST(NetSmoke, ConcurrentClientsWithSessionChurn) {
  const ServeWorld& w = SharedServeWorld();
  const auto model = ModelFor(w, serve::Signal::kAgentEnsemble,
                              core::DefaultingMode::kRevocable);
  NetServerConfig cfg;
  // Small caps so the churn also exercises the BUSY path under load.
  cfg.max_in_flight = 16;
  cfg.service.shard_count = 2;
  ServerRunner server(model, cfg);

  constexpr std::size_t kClients = 3;
  constexpr std::size_t kSessionsPerClient = 4;
  constexpr std::size_t kStepsPerSession = 6;
  std::atomic<std::size_t> total_ok{0};
  std::atomic<std::size_t> total_busy{0};
  std::atomic<std::size_t> failures{0};

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        Client client;
        client.Connect("127.0.0.1", server.Port());
        abr::AbrEnvironment env(w.video, {});
        env.SetFixedTrace(w.traces[c % w.traces.size()]);
        // Churn: each session lives a few steps, then closes and a fresh
        // one takes over mid-connection.
        for (std::size_t s = 0; s < kSessionsPerClient; ++s) {
          const std::uint64_t session = client.OpenSession();
          mdp::State state = env.Reset();
          std::size_t stepped = 0;
          while (stepped < kStepsPerSession) {
            const Reply reply = client.Step(session, state);
            if (reply.status == Status::kBusy) {
              total_busy.fetch_add(1, std::memory_order_relaxed);
              std::this_thread::yield();
              continue;  // resend the same state
            }
            ASSERT_EQ(reply.status, Status::kOk);
            total_ok.fetch_add(1, std::memory_order_relaxed);
            ++stepped;
            mdp::StepResult result = env.Step(reply.action);
            state = std::move(result.next_state);
            if (result.done) state = env.Reset();
          }
          // Interleave a STATS round trip into the churn.
          const ServerStats stats = client.Stats();
          ASSERT_LE(stats.in_flight, cfg.max_in_flight);
          client.CloseSession(session);
        }
        client.Close();
      } catch (const std::exception&) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(total_ok.load(), kClients * kSessionsPerClient * kStepsPerSession);

  // After the churn the server is quiet: no sessions, no in-flight work,
  // and its counters account for every OK/BUSY the clients saw.
  Client probe;
  probe.Connect("127.0.0.1", server.Port());
  const ServerStats stats = probe.Stats();
  EXPECT_EQ(stats.open_sessions, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.decided, total_ok.load());
  EXPECT_EQ(stats.busy, total_busy.load());
  probe.Close();
}

// Abrupt disconnects mid-session: the server must reap the connection's
// sessions and keep serving everyone else.
TEST(NetSmoke, AbruptDisconnectReapsSessions) {
  const ServeWorld& w = SharedServeWorld();
  const auto model = ModelFor(w, serve::Signal::kNovelty,
                              core::DefaultingMode::kPermanent);
  NetServerConfig cfg;
  ServerRunner server(model, cfg);

  Client survivor;
  survivor.Connect("127.0.0.1", server.Port());
  const std::uint64_t session = survivor.OpenSession();
  std::vector<double> state(model->InputSize(), 0.5);

  for (int round = 0; round < 5; ++round) {
    Client dropper;
    dropper.Connect("127.0.0.1", server.Port());
    dropper.OpenSession();
    dropper.OpenSession();
    dropper.Close();  // two sessions die with the connection
    // The survivor's session keeps deciding throughout.
    ASSERT_EQ(survivor.Step(session, state).status, Status::kOk);
  }
  // Give the loop a beat to process the hangups, then check the reap:
  // only the survivor's session remains. The STATS round trip itself
  // serializes behind the loop's event processing.
  const ServerStats stats = survivor.Stats();
  EXPECT_EQ(stats.open_sessions, 1u);
  EXPECT_EQ(stats.connections, 1u);
  survivor.CloseSession(session);
}

// Four edge threads under concurrent client flood (the
// --edge-threads 4 TSan smoke): every status path fires - OK, BUSY (the
// one in-flight budget all four edges share, against pipelined duplicate
// bursts), FULL (more opens than max_sessions, held open across a latch
// so the attempts overlap) and ERROR (steps on bogus sessions) - and
// afterwards the aggregated per-edge counters match the client-side
// tallies exactly. The accounting invariant is the point: ok + busy +
// full + error == requests sent, nothing dropped, nothing double-counted,
// across edges.
TEST(NetSmoke, MultiEdgeFloodAccountsEveryReply) {
  const ServeWorld& w = SharedServeWorld();
  const auto model = ModelFor(w, serve::Signal::kAgentEnsemble,
                              core::DefaultingMode::kRevocable);
  NetServerConfig cfg;
  cfg.edge_threads = 4;
  cfg.max_sessions = 8;
  cfg.max_in_flight = 2;
  cfg.pause_reads_above = 0;
  cfg.service.shard_count = 4;
  ServerRunner server(model, cfg);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kOpensEach = 3;
  std::vector<double> state(model->InputSize(), 0.5);
  std::atomic<std::size_t> ok_steps{0};
  std::atomic<std::size_t> busy{0};
  std::atomic<std::size_t> full{0};
  std::atomic<std::size_t> errors{0};
  std::atomic<std::size_t> failures{0};
  // All opens complete before any session closes, so the 12 attempts
  // genuinely contend for the 8 slots. (The gate reads the active count
  // per edge, so racing edges can briefly over-admit; the tallies still
  // balance, which is what this smoke pins.)
  std::latch opens_done(kThreads);

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        Client client;
        client.Connect("127.0.0.1", server.Port());
        std::uint64_t rid = (t + 1) << 20;
        std::vector<std::uint64_t> sessions;
        for (std::size_t i = 0; i < kOpensEach; ++i) {
          client.SendOpen(++rid);
          client.Flush();
          Reply reply;
          ASSERT_TRUE(client.ReadReply(reply));
          if (reply.status == Status::kOk) {
            sessions.push_back(reply.session_id);
          } else {
            ASSERT_EQ(reply.status, Status::kFull);
            full.fetch_add(1, std::memory_order_relaxed);
          }
        }
        opens_done.arrive_and_wait();

        // Pipelined duplicate bursts per session: the shared budget of 2
        // BUSYs the tail of each burst when it parses in one chunk.
        for (std::uint64_t session : sessions) {
          for (int round = 0; round < 2; ++round) {
            for (int i = 0; i < 4; ++i) {
              client.SendStep(++rid, session, state);
            }
            client.Flush();
            for (int i = 0; i < 4; ++i) {
              Reply reply;
              ASSERT_TRUE(client.ReadReply(reply));
              ASSERT_TRUE(reply.status == Status::kOk ||
                          reply.status == Status::kBusy);
              if (reply.status == Status::kOk) {
                ok_steps.fetch_add(1, std::memory_order_relaxed);
              } else {
                busy.fetch_add(1, std::memory_order_relaxed);
              }
            }
          }
        }
        // One guaranteed error per thread: a STEP on a session that was
        // never opened anywhere.
        client.SendStep(++rid, (std::uint64_t{1} << 40) + t, state);
        client.Flush();
        Reply reply;
        ASSERT_TRUE(client.ReadReply(reply));
        ASSERT_EQ(reply.status, Status::kError);
        errors.fetch_add(1, std::memory_order_relaxed);

        for (std::uint64_t session : sessions) client.CloseSession(session);
        client.Close();
      } catch (const std::exception&) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(ok_steps.load(), 0u);
  EXPECT_GE(full.load(), 1u) << "12 held-open attempts against a cap of 8";
  EXPECT_EQ(errors.load(), kThreads);

  // Every client-side tally shows up in the summed per-edge counters
  // exactly; every session was closed over the wire before its client
  // disconnected, so the service is empty again.
  Client probe;
  probe.Connect("127.0.0.1", server.Port());
  const ServerStats stats = probe.Stats();
  EXPECT_EQ(stats.decided, ok_steps.load());
  EXPECT_EQ(stats.busy, busy.load());
  EXPECT_EQ(stats.rejected_opens, full.load());
  EXPECT_EQ(stats.errors, errors.load());
  EXPECT_EQ(stats.open_sessions, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  probe.Close();
}

}  // namespace
}  // namespace osap::net
