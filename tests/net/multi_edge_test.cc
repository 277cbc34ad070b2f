// Multi-edge NetServer tests: the properties several edges add on top of
// the single-loop server (which the loopback tests keep pinning at
// edge_threads = 1). On a fresh server the k-th connection lands on edge
// k (placement_test.cc pins that).
//
//   - TCP_NODELAY is actually set on both ends of a connection: the
//     client socket (the Client promises it) and the server's accepted
//     socket (found through /proc/self/fd - server and test share a
//     process, so the accepted fd is inspectable with getsockopt).
//   - Graceful shutdown: Stop() with a pipelined burst admitted but
//     undecided answers every request before the client sees EOF.
//   - STATS accounting across edges: every per-status client-side count
//     (ok / busy / full / error) matches the summed per-edge counters
//     exactly, and ok + busy + full + error == requests sent, with one
//     session cap and one in-flight budget shared by both edges.
//   - Session ids are edge-affine: a live session opened on one edge is
//     kError to a STEP or CLOSE arriving on another edge.
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
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

bool NodelaySet(int fd) {
  int flag = 0;
  socklen_t len = sizeof(flag);
  EXPECT_EQ(getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &flag, &len), 0);
  return flag != 0;
}

/// The server-side fd of `client_fd`'s connection: the process's only
/// socket whose peer address is the client's local address (server and
/// test live in one process, so /proc/self/fd has both ends).
int AcceptedPeerFd(int client_fd) {
  sockaddr_in local{};
  socklen_t len = sizeof(local);
  if (getsockname(client_fd, reinterpret_cast<sockaddr*>(&local), &len) != 0) {
    return -1;
  }
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int found = -1;
  while (dirent* entry = readdir(dir)) {
    const int fd = std::atoi(entry->d_name);
    if (fd <= 2 || fd == client_fd) continue;
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    if (getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &peer_len) != 0) {
      continue;
    }
    if (peer.sin_family == AF_INET && peer.sin_port == local.sin_port &&
        peer.sin_addr.s_addr == local.sin_addr.s_addr) {
      found = fd;
      break;
    }
  }
  closedir(dir);
  return found;
}

// Small pipelined frames must not wait out Nagle on either direction:
// both the client socket and the server's accepted socket carry
// TCP_NODELAY.
TEST(NetMultiEdge, TcpNodelaySetOnBothEndsOfAConnection) {
  const ServeWorld& w = SharedServeWorld();
  const auto model = ModelFor(w, serve::Signal::kNovelty,
                              core::DefaultingMode::kPermanent);
  NetServerConfig cfg;
  ServerRunner server(model, cfg);

  Client client;
  client.Connect("127.0.0.1", server.Port());
  EXPECT_TRUE(NodelaySet(client.fd())) << "client socket";

  // A STATS round trip guarantees the accept (and its setsockopt) has
  // happened before we go looking for the server-side fd.
  client.Stats();
  const int accepted = AcceptedPeerFd(client.fd());
  ASSERT_GE(accepted, 0) << "accepted socket not found in /proc/self/fd";
  EXPECT_TRUE(NodelaySet(accepted)) << "server's accepted socket";
  client.Close();
}

// Stop() with admitted-but-undecided STEPs in the pipeline: the drain
// runs decision rounds until the backlog is answered and flushes every
// reply before closing, so the client reads 8 OK replies and only then a
// clean EOF. (Pipelined duplicates of one session defer one round each,
// so the 4x2 burst needs four decision rounds - Stop() lands mid-drain.)
TEST(NetMultiEdge, GracefulShutdownAnswersPipelinedBurstBeforeEof) {
  const ServeWorld& w = SharedServeWorld();
  const auto model = ModelFor(w, serve::Signal::kAgentEnsemble,
                              core::DefaultingMode::kPermanent);
  NetServerConfig cfg;
  NetServer server(model, cfg);
  server.Start();
  std::thread loop([&server] { server.Run(); });

  Client client;
  client.Connect("127.0.0.1", server.Port());
  const std::uint64_t a = client.OpenSession();
  const std::uint64_t b = client.OpenSession();
  abr::AbrEnvironment env(w.video, {});
  env.SetFixedTrace(w.traces[0]);
  const mdp::State state = env.Reset();

  std::uint64_t rid = 0;
  for (int round = 0; round < 4; ++round) {
    client.SendStep(++rid, a, state);
    client.SendStep(++rid, b, state);
  }
  client.Flush();

  // One reply proves the server parsed the burst (ReadAndParse drains the
  // socket before any decision round replies); now stop mid-backlog.
  Reply reply;
  ASSERT_TRUE(client.ReadReply(reply));
  EXPECT_EQ(reply.status, Status::kOk);
  server.Stop();

  std::size_t answered = 1;
  while (client.ReadReply(reply)) {
    EXPECT_EQ(reply.status, Status::kOk);
    ++answered;
  }
  EXPECT_EQ(answered, rid) << "every admitted STEP answered before EOF";
  loop.join();
}

// Two-edge accounting, driven from one thread: every reply status the
// clients observed shows up in the aggregated per-edge counters exactly,
// and nothing is dropped or double-counted. Each connection sits on its
// own edge, and both edges draw on one session cap and one in-flight
// budget.
TEST(NetMultiEdge, StatsAggregateExactlyAcrossEdges) {
  const ServeWorld& w = SharedServeWorld();
  const auto model = ModelFor(w, serve::Signal::kAgentEnsemble,
                              core::DefaultingMode::kPermanent);
  NetServerConfig cfg;
  cfg.edge_threads = 2;
  cfg.max_sessions = 4;
  cfg.max_in_flight = 1;  // one admitted STEP across both edges
  cfg.pause_reads_above = 0;
  ServerRunner server(model, cfg);
  ASSERT_EQ(server.server().EdgeCount(), 2u);

  const std::unique_ptr<Client> on_edge0 = testing::Connect(server.Port());
  const std::unique_ptr<Client> on_edge1 = testing::Connect(server.Port());
  Client& c1 = *on_edge0;
  Client& c2 = *on_edge1;
  abr::AbrEnvironment env(w.video, {});
  env.SetFixedTrace(w.traces[0]);
  const mdp::State state = env.Reset();

  std::size_t ok_steps = 0, busy = 0, full = 0, errors = 0;

  // 6 sequential OPEN attempts against a cap of 4: exactly 2 FULL.
  std::vector<std::pair<Client*, std::uint64_t>> sessions;
  std::uint64_t rid = 100;
  for (std::size_t i = 0; i < 6; ++i) {
    Client& c = i % 2 == 0 ? c1 : c2;
    c.SendOpen(++rid);
    c.Flush();
    Reply reply;
    ASSERT_TRUE(c.ReadReply(reply));
    if (reply.status == Status::kOk) {
      sessions.emplace_back(&c, reply.session_id);
    } else {
      ASSERT_EQ(reply.status, Status::kFull);
      ++full;
    }
  }
  ASSERT_EQ(sessions.size(), 4u);
  EXPECT_EQ(full, 2u);

  // One clean STEP round trip per session.
  for (auto& [c, session] : sessions) {
    const Reply reply = c->Step(session, state);
    ASSERT_EQ(reply.status, Status::kOk);
    ++ok_steps;
  }

  // A pipelined burst of duplicates on each edge at once, against the
  // one shared budget of 1: a burst that parses in one go admits its
  // first STEP at most, and the rest BUSY. (A split read can admit more
  // as rounds drain between chunks, so assert the invariant sum, not
  // exact counts.) Sessions alternate c1, c2, so sessions[0] lives on
  // edge 0 and sessions[1] on edge 1.
  for (std::size_t e = 0; e < 2; ++e) {
    auto& [bc, bs] = sessions[e];
    for (int i = 0; i < 6; ++i) bc->SendStep(++rid, bs, state);
  }
  c1.Flush();
  c2.Flush();
  for (Client* c : {&c1, &c2}) {
    for (int i = 0; i < 6; ++i) {
      Reply reply;
      ASSERT_TRUE(c->ReadReply(reply));
      ASSERT_TRUE(reply.status == Status::kOk ||
                  reply.status == Status::kBusy);
      if (reply.status == Status::kOk) ++ok_steps; else ++busy;
    }
  }
  EXPECT_GT(busy, 0u) << "12 duplicates against a budget of 1 must BUSY";

  // Deterministic errors: STEPs and a CLOSE on a session that does not
  // exist (id far past anything allocated).
  constexpr std::uint64_t kBogus = std::uint64_t{1} << 40;
  c1.SendStep(++rid, kBogus, state);
  c2.SendStep(++rid, kBogus + 1, state);
  c1.SendClose(++rid, kBogus);
  c1.Flush();
  c2.Flush();
  for (Client* c : {&c1, &c1, &c2}) {
    Reply reply;
    ASSERT_TRUE(c->ReadReply(reply));
    ASSERT_EQ(reply.status, Status::kError);
    ++errors;
  }

  for (auto& [c, session] : sessions) c->CloseSession(session);

  // The aggregated per-edge counters match the client-side tallies
  // exactly - decided/busy/rejected_opens/errors are sums over edges, so
  // any lost or double-counted reply shows up here.
  const ServerStats stats = c1.Stats();
  EXPECT_EQ(stats.decided, ok_steps);
  EXPECT_EQ(stats.busy, busy);
  EXPECT_EQ(stats.rejected_opens, full);
  EXPECT_EQ(stats.errors, errors);
  EXPECT_EQ(stats.open_sessions, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.connections, 2u);
}

// A live session's id presented on the other edge is kError: each edge
// addresses only its own shard's open sessions.
TEST(NetMultiEdge, LiveSessionFromAnotherEdgeIsError) {
  const ServeWorld& w = SharedServeWorld();
  const auto model = ModelFor(w, serve::Signal::kAgentEnsemble,
                              core::DefaultingMode::kPermanent);
  NetServerConfig cfg;
  cfg.edge_threads = 2;
  ServerRunner server(model, cfg);

  std::unique_ptr<Client> holder[2];  // holder[g] is on edge g
  std::uint64_t session[2] = {0, 0};
  for (std::size_t g = 0; g < 2; ++g) {
    holder[g] = testing::Connect(server.Port());
    session[g] = holder[g]->OpenSession();
  }

  abr::AbrEnvironment env(w.video, {});
  env.SetFixedTrace(w.traces[0]);
  const mdp::State state = env.Reset();
  std::uint64_t rid = 1 << 20;
  for (std::size_t g = 0; g < 2; ++g) {
    Client& foreign = *holder[1 - g];
    foreign.SendStep(++rid, session[g], state);
    foreign.SendClose(++rid, session[g]);
    foreign.Flush();
    for (int k = 0; k < 2; ++k) {
      Reply reply;
      ASSERT_TRUE(foreign.ReadReply(reply));
      EXPECT_EQ(reply.status, Status::kError)
          << "edge " << g << "'s session on the other edge";
    }
  }
  // Both sessions still work for their owners.
  for (std::size_t g = 0; g < 2; ++g) {
    EXPECT_EQ(holder[g]->Step(session[g], state).status, Status::kOk);
  }
  EXPECT_EQ(holder[0]->Stats().errors, 4u);
}

}  // namespace
}  // namespace osap::net
