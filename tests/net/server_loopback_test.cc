// NetServer loopback tests: the acceptance criteria of the network edge.
//
// Wire decisions match the in-process ones bit for bit; the differential
// oracle (testing/defaulting_oracle.h) pins that for every signal, mode
// and edge count. The framing tests here (bursts that straddle reads,
// paused reads, one byte per send) take their expected answers from the
// oracle's SafeAgent reference, so a framing bug shows up as a wrong
// decision.
//
// The admission tests pin the other acceptance criterion: a flooding
// client gets BUSY past the in-flight budget, a client that never reads
// is stopped by TCP, and every request gets exactly one reply - nothing
// is silently dropped.
#include "net/server.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "abr/abr_environment.h"
#include "net/client.h"
#include "testing/defaulting_oracle.h"

namespace osap::net {
namespace {

using testing::BoundReplyWait;
using testing::ModelFor;
using testing::ServerRunner;
using testing::ServeWorld;
using testing::SharedServeWorld;

TEST(NetServerLoopback, ReplyEpochsAreMonotonic) {
  const ServeWorld& w = SharedServeWorld();
  const auto model = ModelFor(w, serve::Signal::kAgentEnsemble,
                              core::DefaultingMode::kPermanent);
  NetServerConfig cfg;
  ServerRunner server(model, cfg);
  Client client;
  client.Connect("127.0.0.1", server.Port());
  const auto session = client.OpenSession();
  abr::AbrEnvironment env(w.video, {});
  env.SetFixedTrace(w.traces[0]);
  mdp::State state = env.Reset();
  std::uint64_t last_epoch = 0;
  for (int i = 0; i < 20; ++i) {
    const Reply reply = client.Step(session, state);
    ASSERT_EQ(reply.status, Status::kOk);
    EXPECT_GT(reply.epoch, last_epoch)
        << "every one-at-a-time STEP runs its own decision round";
    last_epoch = reply.epoch;
    state = env.Step(reply.action).next_state;
  }
  client.CloseSession(session);
}

// Acceptance criterion: with the in-flight cap set low, a flooding client
// gets BUSY replies and no request is silently dropped (replies exactly
// match requests sent).
TEST(NetServerLoopback, FloodPastInFlightCapGetsBusyNotDropped) {
  const ServeWorld& w = SharedServeWorld();
  const auto model = ModelFor(w, serve::Signal::kAgentEnsemble,
                              core::DefaultingMode::kPermanent);
  NetServerConfig cfg;
  cfg.max_in_flight = 4;
  cfg.pause_reads_above = 0;  // keep reading so BUSY is immediate
  ServerRunner server(model, cfg);

  Client client;
  client.Connect("127.0.0.1", server.Port());
  // Flood across several sessions: one session would serialize to one
  // admitted STEP per round (the per-round dedup) without touching the
  // cap. Eight sessions x 8 steps = 64 requests against a cap of 4.
  constexpr std::size_t kFloodSessions = 8;
  constexpr std::size_t kStepsEach = 8;
  std::vector<std::uint64_t> sessions;
  for (std::size_t i = 0; i < kFloodSessions; ++i) {
    sessions.push_back(client.OpenSession());
  }
  abr::AbrEnvironment env(w.video, {});
  env.SetFixedTrace(w.traces[0]);
  const mdp::State state = env.Reset();

  std::uint64_t rid = 0;
  for (std::size_t step = 0; step < kStepsEach; ++step) {
    for (std::uint64_t session : sessions) {
      client.SendStep(++rid, session, state);
    }
  }
  client.Flush();

  std::size_t ok = 0, busy = 0;
  for (std::uint64_t k = 0; k < rid; ++k) {
    Reply reply;
    ASSERT_TRUE(client.ReadReply(reply)) << "reply " << k << " missing";
    ASSERT_TRUE(reply.status == Status::kOk || reply.status == Status::kBusy)
        << "unexpected status " << static_cast<int>(reply.status);
    ok += reply.status == Status::kOk;
    busy += reply.status == Status::kBusy;
  }
  // Every request answered exactly once; the flood actually tripped the
  // cap, and some requests were still served.
  EXPECT_EQ(ok + busy, rid);
  EXPECT_GT(busy, 0u) << "64 pipelined steps against a cap of 4 must BUSY";
  EXPECT_GT(ok, 0u);

  const ServerStats stats = client.Stats();
  EXPECT_EQ(stats.decided, ok);
  EXPECT_EQ(stats.busy, busy);
  EXPECT_EQ(stats.in_flight, 0u);  // all drained by now
  for (std::uint64_t session : sessions) client.CloseSession(session);
}

TEST(NetServerLoopback, OpenPastMaxSessionsGetsFull) {
  const ServeWorld& w = SharedServeWorld();
  const auto model = ModelFor(w, serve::Signal::kNovelty,
                              core::DefaultingMode::kPermanent);
  NetServerConfig cfg;
  cfg.max_sessions = 3;
  ServerRunner server(model, cfg);

  Client client;
  client.Connect("127.0.0.1", server.Port());
  std::vector<std::uint64_t> sessions;
  for (std::size_t i = 0; i < 3; ++i) sessions.push_back(client.OpenSession());
  EXPECT_THROW(client.OpenSession(), std::runtime_error);  // kFull

  // Closing one frees a slot; the gate is on live sessions, not a
  // lifetime count.
  client.CloseSession(sessions.back());
  sessions.back() = client.OpenSession();

  const ServerStats stats = client.Stats();
  EXPECT_EQ(stats.open_sessions, 3u);
  EXPECT_EQ(stats.rejected_opens, 1u);
  for (std::uint64_t session : sessions) client.CloseSession(session);
}

TEST(NetServerLoopback, BogusRequestsGetErrorRepliesNotSilence) {
  const ServeWorld& w = SharedServeWorld();
  const auto model = ModelFor(w, serve::Signal::kNovelty,
                              core::DefaultingMode::kPermanent);
  NetServerConfig cfg;
  ServerRunner server(model, cfg);

  Client client;
  client.Connect("127.0.0.1", server.Port());
  const auto session = client.OpenSession();

  // STEP on a session that was never opened.
  std::vector<double> state(model->InputSize(), 0.5);
  client.SendStep(1, session + 999, state);
  // STEP with the wrong state width.
  std::vector<double> narrow(model->InputSize() - 1, 0.5);
  client.SendStep(2, session, narrow);
  // CLOSE of an unknown session.
  client.SendClose(3, session + 999);
  client.Flush();
  for (std::uint64_t rid = 1; rid <= 3; ++rid) {
    Reply reply;
    ASSERT_TRUE(client.ReadReply(reply));
    EXPECT_EQ(reply.request_id, rid);
    EXPECT_EQ(reply.status, Status::kError);
  }
  // The connection survives protocol-level errors (only framing
  // violations tear it down): the real session still works.
  const Reply reply = client.Step(session, state);
  EXPECT_EQ(reply.status, Status::kOk);
  client.CloseSession(session);
}

// A CLOSE that overtakes pipelined STEPs of the same session: every
// STEP still gets a reply (kOk if it made a decision round before the
// CLOSE was parsed, kError if the CLOSE failed it) - never silence - and
// a STEP after the CLOSE is kError.
TEST(NetServerLoopback, CloseOvertakingPipelinedStepsAnswersEverything) {
  const ServeWorld& w = SharedServeWorld();
  const auto model = ModelFor(w, serve::Signal::kNovelty,
                              core::DefaultingMode::kPermanent);
  NetServerConfig cfg;
  ServerRunner server(model, cfg);

  Client client;
  client.Connect("127.0.0.1", server.Port());
  const auto session = client.OpenSession();
  std::vector<double> state(model->InputSize(), 0.25);

  client.SendStep(1, session, state);
  client.SendStep(2, session, state);
  client.SendStep(3, session, state);
  client.SendClose(4, session);
  client.SendStep(5, session, state);
  client.Flush();

  std::size_t answered = 0;
  for (std::size_t k = 0; k < 5; ++k) {
    Reply reply;
    ASSERT_TRUE(client.ReadReply(reply));
    ++answered;
    switch (reply.request_id) {
      case 1:
      case 2:
      case 3:
        EXPECT_TRUE(reply.status == Status::kOk ||
                    reply.status == Status::kError);
        break;
      case 4:
        EXPECT_EQ(reply.status, Status::kOk) << "the CLOSE itself";
        break;
      case 5:
        EXPECT_EQ(reply.status, Status::kError) << "STEP after CLOSE";
        break;
      default:
        FAIL() << "unknown request id " << reply.request_id;
    }
  }
  EXPECT_EQ(answered, 5u);
}

TEST(NetServerLoopback, StatsReflectServiceState) {
  const ServeWorld& w = SharedServeWorld();
  const auto model = ModelFor(w, serve::Signal::kNovelty,
                              core::DefaultingMode::kPermanent);
  NetServerConfig cfg;
  ServerRunner server(model, cfg);

  Client client;
  client.Connect("127.0.0.1", server.Port());
  const ServerStats empty = client.Stats();
  EXPECT_EQ(empty.open_sessions, 0u);
  EXPECT_EQ(empty.decided, 0u);
  EXPECT_EQ(empty.connections, 1u);

  const auto a = client.OpenSession();
  const auto b = client.OpenSession();
  std::vector<double> state(model->InputSize(), 0.1);
  ASSERT_EQ(client.Step(a, state).status, Status::kOk);
  ASSERT_EQ(client.Step(b, state).status, Status::kOk);

  const ServerStats stats = client.Stats();
  EXPECT_EQ(stats.open_sessions, 2u);
  EXPECT_GT(stats.session_bytes, 0u);
  EXPECT_EQ(stats.decided, 2u);
  EXPECT_EQ(stats.epochs, 2u);
  EXPECT_EQ(stats.busy, 0u);
  client.CloseSession(a);
  client.CloseSession(b);
  const ServerStats after = client.Stats();
  EXPECT_EQ(after.open_sessions, 0u);
}

// Satellite regression for the send-path signal audit: a peer that
// RSTs (SO_LINGER abort) with replies still queued must cost the server
// at most that one connection - never a SIGPIPE (the flush path uses
// sendmsg + MSG_NOSIGNAL) and never a wedged loop.
TEST(NetServerLoopback, PeerResetMidReplyDoesNotKillServer) {
  const ServeWorld& w = SharedServeWorld();
  const auto model = ModelFor(w, serve::Signal::kNovelty,
                              core::DefaultingMode::kPermanent);
  NetServerConfig cfg;
  ServerRunner server(model, cfg);

  std::vector<double> state(model->InputSize(), 0.4);
  for (int round = 0; round < 3; ++round) {
    Client rude;
    rude.Connect("127.0.0.1", server.Port());
    const auto session = rude.OpenSession();
    // Pipeline a burst the server will be answering when the reset
    // lands, then abort: SO_LINGER{on, 0} turns close() into RST, so
    // the server's queued replies hit a dead socket mid-flush.
    for (std::uint64_t rid = 1; rid <= 32; ++rid) {
      rude.SendStep(rid, session, state);
    }
    rude.Flush();
    struct linger hard {};
    hard.l_onoff = 1;
    hard.l_linger = 0;
    ASSERT_EQ(::setsockopt(rude.fd(), SOL_SOCKET, SO_LINGER, &hard,
                           sizeof hard),
              0);
    rude.Close();
  }

  // The server is still alive and consistent: a polite client gets
  // decisions, and the aborted connections' sessions were reaped.
  Client polite;
  polite.Connect("127.0.0.1", server.Port());
  const auto session = polite.OpenSession();
  const Reply reply = polite.Step(session, state);
  EXPECT_EQ(reply.status, Status::kOk);
  const ServerStats stats = polite.Stats();
  EXPECT_EQ(stats.open_sessions, 1u);
  EXPECT_EQ(stats.connections, 1u);
  polite.CloseSession(session);
}

/// The framing tests' sessions and their expected answers: viewer v
/// streams trace v % traces (ID and OOD alternate) through its own
/// SafeAgent for `steps` decisions - the oracle's reference.
std::vector<testing::ReferenceSession> ReferenceViewers(
    serve::Signal signal, std::size_t viewers, std::size_t steps) {
  const ServeWorld& w = SharedServeWorld();
  std::vector<testing::SessionScript> scripts(viewers, {.steps = steps});
  for (std::size_t v = 0; v < viewers; ++v) {
    scripts[v].id_trace = v % w.traces.size();
  }
  return testing::RunReference(w, scripts, signal,
                               core::DefaultingMode::kPermanent);
}

/// Reply tally for the STATS identity ok + busy + full + error == sent.
struct Tally {
  std::size_t ok = 0, busy = 0, full = 0, error = 0;
  void Add(const Reply& reply) {
    ok += reply.status == Status::kOk;
    busy += reply.status == Status::kBusy;
    full += reply.status == Status::kFull;
    error += reply.status == Status::kError;
  }
  std::size_t Total() const { return ok + busy + full + error; }
};

/// Runs each reference viewer over ONE connection: opens a session per
/// viewer, pipelines every STEP in a single flush (step-major, so
/// consecutive frames belong to different sessions), then closes the
/// sessions. Every reply must be kOk and carry exactly the reference's
/// action and defaulted flag for its viewer's step, and
/// ok + busy + full + error == sent.
void ExpectPipelinedBurstMatchesReference(
    const std::shared_ptr<const serve::ServingModel>& model,
    const NetServerConfig& cfg,
    const std::vector<testing::ReferenceSession>& reference) {
  const std::size_t viewers = reference.size();
  const std::size_t steps = reference[0].states.size();
  ServerRunner server(model, cfg);
  Client client;
  client.Connect("127.0.0.1", server.Port());
  BoundReplyWait(client);
  Tally tally;
  std::size_t sent = 0;
  std::vector<std::uint64_t> session(viewers);
  for (std::size_t v = 0; v < viewers; ++v) client.SendOpen(1 + v);
  sent += viewers;
  client.Flush();
  for (std::size_t k = 0; k < viewers; ++k) {
    Reply reply;
    ASSERT_TRUE(client.ReadReply(reply));
    ASSERT_EQ(reply.status, Status::kOk);
    tally.Add(reply);
    session[reply.request_id - 1] = reply.session_id;
  }

  // Request id (1 << 20) + k * viewers + v is viewer v's step k.
  constexpr std::uint64_t kBase = 1 << 20;
  for (std::size_t k = 0; k < steps; ++k) {
    for (std::size_t v = 0; v < viewers; ++v) {
      client.SendStep(kBase + k * viewers + v, session[v],
                      reference[v].states[k]);
    }
  }
  sent += steps * viewers;
  client.Flush();
  for (std::size_t n = 0; n < steps * viewers; ++n) {
    Reply reply;
    ASSERT_TRUE(client.ReadReply(reply)) << "reply " << n << " missing";
    tally.Add(reply);
    ASSERT_EQ(reply.status, Status::kOk);
    ASSERT_GE(reply.request_id, kBase);
    const std::uint64_t index = reply.request_id - kBase;
    ASSERT_LT(index, steps * viewers);
    const std::size_t v = index % viewers;
    const std::size_t k = index / viewers;
    EXPECT_EQ(reply.session_id, session[v]);
    EXPECT_EQ(reply.action, reference[v].actions[k])
        << "viewer " << v << " step " << k;
    EXPECT_EQ(reply.Defaulted(), reference[v].defaulted[k] != 0)
        << "viewer " << v << " step " << k;
  }

  for (std::size_t v = 0; v < viewers; ++v) {
    client.SendClose(1 + v, session[v]);
  }
  sent += viewers;
  client.Flush();
  for (std::size_t k = 0; k < viewers; ++k) {
    Reply reply;
    ASSERT_TRUE(client.ReadReply(reply));
    tally.Add(reply);
  }
  EXPECT_EQ(tally.Total(), sent);
  EXPECT_EQ(tally.ok, sent);
  const ServerStats stats = client.Stats();
  EXPECT_EQ(stats.decided, steps * viewers);
  EXPECT_EQ(stats.busy + stats.rejected_opens + stats.errors, 0u);
}

// Non-finite states never reach the decision path: a NaN in the buffer
// slot would feed the fallback's buffer-to-level cast, and a NaN or
// infinity elsewhere would score NaN and never default. Each gets kError,
// the connection keeps working, and STATS counts every reply.
TEST(NetServerLoopback, NonFiniteStatesGetErrorReplies) {
  const ServeWorld& w = SharedServeWorld();
  const auto model = ModelFor(w, serve::Signal::kAgentEnsemble,
                              core::DefaultingMode::kPermanent);
  ServerRunner server(model, NetServerConfig{});
  Client client;
  client.Connect("127.0.0.1", server.Port());
  BoundReplyWait(client);
  const std::uint64_t session = client.OpenSession();
  std::vector<std::vector<double>> states(
      3, std::vector<double>(model->InputSize(), 0.25));
  states[0][w.layout.BufferIndex()] = std::numeric_limits<double>::quiet_NaN();
  states[1][w.layout.ThroughputBegin()] =
      std::numeric_limits<double>::infinity();

  Tally tally;
  for (std::uint64_t rid = 1; rid <= 3; ++rid) {
    client.SendStep(rid, session, states[rid - 1]);
  }
  client.Flush();
  for (std::uint64_t rid = 1; rid <= 3; ++rid) {
    Reply reply;
    ASSERT_TRUE(client.ReadReply(reply));
    EXPECT_EQ(reply.request_id, rid);
    EXPECT_EQ(reply.status, rid < 3 ? Status::kError : Status::kOk);
    tally.Add(reply);
  }
  EXPECT_EQ(tally.error, 2u);
  const ServerStats stats = client.Stats();
  EXPECT_EQ(stats.decided, tally.ok);
  EXPECT_EQ(stats.errors, tally.error);
  EXPECT_EQ(stats.busy + stats.rejected_opens, tally.busy + tally.full);
  EXPECT_EQ(tally.Total(), 3u);
  client.CloseSession(session);
}

// One pipelined burst of STEPs more than twice kReadChunk, so the server
// needs several reads, and a full kReadChunk read cannot end on a frame
// boundary (kReadChunk is not a multiple of the frame size): frames
// straddle reads. Every reply must carry exactly the reference's decision
// for its viewer's step.
TEST(NetServerLoopback, BurstLargerThanReadChunkDecodesExactly) {
  const ServeWorld& w = SharedServeWorld();
  constexpr std::size_t kViewers = 16;
  const auto model = ModelFor(w, serve::Signal::kAgentEnsemble,
                              core::DefaultingMode::kPermanent);
  const std::size_t frame = StepFrameBytes(model->InputSize());
  const std::size_t steps = 2 * kReadChunk / (kViewers * frame) + 1;
  ASSERT_GT(kViewers * steps * frame, 2 * kReadChunk);
  ASSERT_NE(kReadChunk % frame, 0u);
  ASSERT_LE(steps, w.video.ChunkCount());

  NetServerConfig cfg;
  ExpectPipelinedBurstMatchesReference(
      model, cfg,
      ReferenceViewers(serve::Signal::kAgentEnsemble, kViewers, steps));
}

// TCP pushback: with pause_reads_above = 2 the connection pauses after
// every second admitted STEP, so the burst is read a couple of frames
// per decision round and most of it waits in the kernel receive buffer
// while paused. Edge-triggered epoll announces those bytes only once, so
// each resume must drain the socket explicitly (DrainSocket); a lost
// wakeup leaves replies missing and the bounded read fails the test.
TEST(NetServerLoopback, PausedConnectionResumesAndAnswersEverything) {
  const ServeWorld& w = SharedServeWorld();
  constexpr std::size_t kViewers = 16;
  const auto model = ModelFor(w, serve::Signal::kNovelty,
                              core::DefaultingMode::kPermanent);
  // More than two read chunks: the paused remainder outlives the bytes
  // already buffered in user space.
  const std::size_t frame = StepFrameBytes(model->InputSize());
  const std::size_t steps = 2 * kReadChunk / (kViewers * frame) + 1;
  ASSERT_GE(kViewers * steps, 200u);
  ASSERT_LE(steps, w.video.ChunkCount());

  NetServerConfig cfg;
  cfg.pause_reads_above = 2;
  ExpectPipelinedBurstMatchesReference(
      model, cfg, ReferenceViewers(serve::Signal::kNovelty, kViewers, steps));
}

/// The most bytes TCP autotuning gives one socket buffer: the third
/// field of /proc/sys/net/ipv4/tcp_rmem or tcp_wmem (0 if unreadable).
std::size_t TcpBufferMax(const char* path) {
  std::ifstream in(path);
  std::size_t min = 0, initial = 0, max = 0;
  in >> min >> initial >> max;
  return max;
}

// A client that sends STATS requests and never reads a reply (each reply
// is six times its request). The edge stops reading it once its unsent
// replies reach kPauseUnsentBytes, the kernel buffers fill, and TCP
// blocks the sender: what the client gets out before that is bounded by
// the socket buffers on both ends plus the edge's own buffers. The client
// then reads every reply exactly once, in order, and the STATS identity
// ok + busy + full + error == sent holds.
TEST(NetServerLoopback, ClientThatNeverReadsIsStoppedByTcp) {
  const ServeWorld& w = SharedServeWorld();
  const auto model = ModelFor(w, serve::Signal::kNovelty,
                              core::DefaultingMode::kPermanent);
  ServerRunner server(model, NetServerConfig{});
  Client client;
  client.Connect("127.0.0.1", server.Port());
  BoundReplyWait(client);
  const int fd = client.fd();
  // The client's own buffers are fixed (the kernel doubles the value);
  // the server's autotune up to this host's maxima.
  constexpr int kClientBuffer = 64 * 1024;
  for (const int option : {SO_SNDBUF, SO_RCVBUF}) {
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, option, &kClientBuffer,
                           sizeof kClientBuffer),
              0);
  }
  const std::size_t rmem_max = TcpBufferMax("/proc/sys/net/ipv4/tcp_rmem");
  const std::size_t wmem_max = TcpBufferMax("/proc/sys/net/ipv4/tcp_wmem");
  ASSERT_GT(rmem_max, 0u);
  ASSERT_GT(wmem_max, 0u);
  // Unread requests sit in the client's send buffer, the server's
  // receive buffer and one read chunk of the edge; answered ones are
  // counted at reply size (an over-count) in the edge's unsent bytes, the
  // server's send buffer and the client's receive buffer.
  const std::size_t bound = 2 * kClientBuffer + rmem_max + kReadChunk +
                            kPauseUnsentBytes + wmem_max + 2 * kClientBuffer;

  constexpr std::size_t kFrame = kLengthPrefixBytes + kRequestHeaderBytes;
  std::vector<std::uint8_t> chunk;
  std::size_t off = 0, sent = 0;
  std::uint64_t framed = 0;
  while (sent <= bound) {
    if (off == chunk.size()) {
      chunk.clear();
      off = 0;
      for (int i = 0; i < 512; ++i) {
        AppendRequestFrame(chunk,
                           {kProtocolVersion, MsgType::kStats, ++framed, 0});
      }
    }
    const ssize_t n = ::send(fd, chunk.data() + off, chunk.size() - off,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      sent += static_cast<std::size_t>(n);
      continue;
    }
    ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
    pollfd writable{fd, POLLOUT, 0};
    if (::poll(&writable, 1, 1000) == 0) break;  // blocked for 1 s
  }
  ASSERT_LE(sent, bound) << "the server kept reading a client that never "
                            "reads (bound from tcp_rmem/tcp_wmem maxima)";

  // Every whole frame is answered without the cut one's tail; once those
  // replies are read the edge drains, resumes, and takes the tail.
  Tally tally;
  const std::uint64_t frames = (sent + kFrame - 1) / kFrame;
  for (std::uint64_t k = 1; k <= frames; ++k) {
    if (k == frames && sent % kFrame != 0) {
      const std::size_t rest = frames * kFrame - sent;
      ASSERT_EQ(::send(fd, chunk.data() + off, rest, MSG_NOSIGNAL),
                static_cast<ssize_t>(rest));
    }
    Reply reply;
    ASSERT_TRUE(client.ReadReply(reply)) << "reply " << k << " missing";
    ASSERT_EQ(reply.request_id, k);
    tally.Add(reply);
  }
  const ServerStats stats = client.Stats();
  EXPECT_EQ(tally.Total(), frames);
  EXPECT_EQ(tally.ok, frames);
  EXPECT_EQ(stats.busy + stats.rejected_opens + stats.errors,
            tally.busy + tally.full + tally.error);
  EXPECT_EQ(stats.connections, 1u);
}

// Frames trickling in one byte per send(): the parser must hold every
// partial length prefix, header and state payload across reads and
// answer each frame exactly once, exactly as the reference.
TEST(NetServerLoopback, OneBytePerSendReassemblesFrames) {
  const ServeWorld& w = SharedServeWorld();
  constexpr std::size_t kSteps = 3;
  const auto model = ModelFor(w, serve::Signal::kNovelty,
                              core::DefaultingMode::kPermanent);
  const auto reference = ReferenceViewers(serve::Signal::kNovelty, 1, kSteps);

  NetServerConfig cfg;
  ServerRunner server(model, cfg);
  Client client;
  client.Connect("127.0.0.1", server.Port());
  BoundReplyWait(client);
  const auto trickle = [&](const RequestHeader& header,
                           std::span<const double> state) {
    std::vector<std::uint8_t> frame;
    AppendRequestFrame(frame, header, state);
    for (const std::uint8_t byte : frame) {
      ASSERT_EQ(::send(client.fd(), &byte, 1, MSG_NOSIGNAL), 1);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  };
  Tally tally;
  Reply reply;
  trickle({kProtocolVersion, MsgType::kOpenSession, 1, 0}, {});
  ASSERT_TRUE(client.ReadReply(reply));
  tally.Add(reply);
  ASSERT_EQ(reply.status, Status::kOk);
  const std::uint64_t session = reply.session_id;
  for (std::size_t k = 0; k < kSteps; ++k) {
    trickle({kProtocolVersion, MsgType::kStep, 2 + k, session}, reference[0].states[k]);
    ASSERT_TRUE(client.ReadReply(reply));
    tally.Add(reply);
    EXPECT_EQ(reply.request_id, 2 + k);
    EXPECT_EQ(reply.status, Status::kOk);
    EXPECT_EQ(reply.action, reference[0].actions[k]) << "step " << k;
    EXPECT_EQ(reply.Defaulted(), reference[0].defaulted[k] != 0);
  }
  trickle({kProtocolVersion, MsgType::kCloseSession, 9, session}, {});
  ASSERT_TRUE(client.ReadReply(reply));
  tally.Add(reply);
  EXPECT_EQ(tally.Total(), 2 + kSteps);
  EXPECT_EQ(tally.ok, 2 + kSteps);
  const ServerStats stats = client.Stats();
  EXPECT_EQ(stats.decided, kSteps);
  EXPECT_EQ(stats.open_sessions, 0u);
}

// A length prefix above the largest legal request (a STEP carrying the
// model's state) closes the connection as soon as the prefix and a valid
// header are in, without waiting for a body that would pin a partial
// frame per peer. Everything the peer sent before it was answered, and
// its session is reaped.
TEST(NetServerLoopback, OversizedLengthPrefixClosesAtOnce) {
  const ServeWorld& w = SharedServeWorld();
  const auto model = ModelFor(w, serve::Signal::kNovelty,
                              core::DefaultingMode::kPermanent);
  ServerRunner server(model, NetServerConfig{});
  Client client;
  client.Connect("127.0.0.1", server.Port());
  BoundReplyWait(client);
  Tally tally;
  const auto session = client.OpenSession();
  tally.ok += 1;
  const std::vector<double> state(model->InputSize(), 0.5);
  tally.Add(client.Step(session, state));

  constexpr std::uint32_t kBody = 4096;
  ASSERT_GT(kBody, StepFrameBytes(model->InputSize()));
  std::vector<std::uint8_t> frame;
  AppendRequestFrame(frame, {kProtocolVersion, MsgType::kStep, 3, session},
                     state);
  std::vector<std::uint8_t> bytes;
  PutU32(bytes, kBody);
  bytes.insert(bytes.end(), frame.begin() + kLengthPrefixBytes,
               frame.begin() + kLengthPrefixBytes + kRequestHeaderBytes);
  ASSERT_EQ(::send(client.fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));

  // The server closes its end: the socket reads EOF (or a reset) well
  // within the wait, with no reply before it.
  pollfd pfd{client.fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 2000), 1) << "server still waits for the body";
  std::uint8_t byte = 0;
  EXPECT_LE(::recv(client.fd(), &byte, 1, 0), 0);

  Client observer;
  observer.Connect("127.0.0.1", server.Port());
  const ServerStats stats = observer.Stats();
  EXPECT_EQ(tally.Total(), 2u);
  EXPECT_EQ(tally.ok, 2u);
  EXPECT_EQ(stats.decided, 1u);
  EXPECT_EQ(stats.busy + stats.rejected_opens + stats.errors, 0u);
  EXPECT_EQ(stats.open_sessions, 0u);
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_EQ(stats.in_flight, 0u);
}

// A session answers only to the connection that opened it: another
// connection's STEP or CLOSE on it is kError and leaves it working for
// its owner. The same holds once the id is recycled: after A closes its
// session, B's OPEN gets the same id (LIFO), and A's STEP on it is
// kError.
TEST(NetServerLoopback, ForeignConnectionCannotStepOrCloseASession) {
  const ServeWorld& w = SharedServeWorld();
  const auto model = ModelFor(w, serve::Signal::kNovelty,
                              core::DefaultingMode::kPermanent);
  ServerRunner server(model, NetServerConfig{});
  Client a, b;
  a.Connect("127.0.0.1", server.Port());
  b.Connect("127.0.0.1", server.Port());
  const std::vector<double> state(model->InputSize(), 0.25);

  Tally tally;
  std::size_t sent = 0;
  std::uint64_t rid = 0;
  // Flushes the one request just sent on `c` and reads its reply.
  const auto reply_to = [&](Client& c) {
    ++sent;
    c.Flush();
    Reply reply;
    if (!c.ReadReply(reply)) throw std::runtime_error("early EOF");
    EXPECT_EQ(reply.request_id, rid);
    tally.Add(reply);
    return reply;
  };

  a.SendOpen(++rid);
  const Reply opened = reply_to(a);
  ASSERT_EQ(opened.status, Status::kOk);
  const std::uint64_t id = opened.session_id;
  b.SendStep(++rid, id, state);
  EXPECT_EQ(reply_to(b).status, Status::kError);
  b.SendClose(++rid, id);
  EXPECT_EQ(reply_to(b).status, Status::kError);
  a.SendStep(++rid, id, state);
  EXPECT_EQ(reply_to(a).status, Status::kOk)
      << "the owner's session survives a foreign STEP and CLOSE";
  a.SendClose(++rid, id);
  EXPECT_EQ(reply_to(a).status, Status::kOk);

  b.SendOpen(++rid);
  const Reply reopened = reply_to(b);
  ASSERT_EQ(reopened.status, Status::kOk);
  ASSERT_EQ(reopened.session_id, id)
      << "ids recycle most recently closed first";
  a.SendStep(++rid, id, state);
  EXPECT_EQ(reply_to(a).status, Status::kError)
      << "a recycled id belongs to its new owner";
  b.SendStep(++rid, id, state);
  EXPECT_EQ(reply_to(b).status, Status::kOk);
  b.SendClose(++rid, id);
  EXPECT_EQ(reply_to(b).status, Status::kOk);

  EXPECT_EQ(tally.Total(), sent);
  EXPECT_EQ(tally.error, 3u);
  const ServerStats stats = a.Stats();
  EXPECT_EQ(stats.errors, tally.error);
  EXPECT_EQ(stats.open_sessions, 0u);
}

// The edge's IO syscall budget: one STEP in flight at a time, each sent
// only after the previous reply arrived, costs exactly one epoll_wait,
// the recv that reads the frame, the recv that hits EAGAIN and the
// sendmsg of the reply. An extra epoll_ctl or recv per round fails this.
// Between rounds the edge sits in its next blocking epoll_wait, which is
// counted only when it returns; the sendmsg increment is relaxed and can
// land after the client has the reply, so each end of the window may
// miss one syscall and the delta is exact within +-1.
TEST(NetServerLoopback, SequentialStepsStayWithinTheIoSyscallBudget) {
  constexpr std::uint64_t kSyscallsPerRound = 4;
  constexpr std::uint64_t kRounds = 256;
  const ServeWorld& w = SharedServeWorld();
  const auto model = ModelFor(w, serve::Signal::kNovelty,
                              core::DefaultingMode::kPermanent);
  ServerRunner server(model, NetServerConfig{});
  Client client;
  client.Connect("127.0.0.1", server.Port());
  BoundReplyWait(client);
  const auto session = client.OpenSession();
  const std::vector<double> state(model->InputSize(), 0.25);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(client.Step(session, state).status, Status::kOk);
  }

  // IoSyscalls() only sums the edges' atomics: safe while Run() loops.
  const std::uint64_t before = server.server().IoSyscalls();
  for (std::uint64_t k = 0; k < kRounds; ++k) {
    ASSERT_EQ(client.Step(session, state).status, Status::kOk);
  }
  const std::uint64_t used = server.server().IoSyscalls() - before;
  const std::uint64_t budget = kRounds * kSyscallsPerRound;
  EXPECT_GE(used + 1, budget) << used << " IO syscalls in " << kRounds
                              << " rounds";
  EXPECT_LE(used, budget + 1) << used << " IO syscalls in " << kRounds
                              << " rounds";
  client.CloseSession(session);
}

/// Client sockets made up front (a socket needs no new fd to connect),
/// then the process's soft RLIMIT_NOFILE lowered to `room` fds above
/// them. The destructor restores the limit and closes the sockets.
class FdStarvedClients {
 public:
  FdStarvedClients(std::size_t count, rlim_t room) {
    for (std::size_t i = 0; i < count; ++i) {
      fds.push_back(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
      EXPECT_GE(fds.back(), 0);
    }
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved_), 0);
    const int lowest_free = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(lowest_free, 0);
    ::close(lowest_free);
    rlimit low = saved_;
    low.rlim_cur = static_cast<rlim_t>(lowest_free) + room;
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  }
  ~FdStarvedClients() {
    RestoreLimit();
    for (const int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
  FdStarvedClients(const FdStarvedClients&) = delete;
  FdStarvedClients& operator=(const FdStarvedClients&) = delete;

  void RestoreLimit() const { ::setrlimit(RLIMIT_NOFILE, &saved_); }

  std::vector<int> fds;  // -1 once closed

 private:
  rlimit saved_{};
};

// fd exhaustion: with the process's soft RLIMIT_NOFILE lowered so the
// server has room for a few of 40 pending connections, accept4 fails
// with EMFILE. Edge 0 takes its level-triggered listener out of the epoll
// set instead of spinning on it, so a second past the limit costs a
// bounded number of IO syscalls. Every connection the test closes frees
// an fd and lets a pending one in (the closes happen on both edges, so
// the resume crosses threads), until each has been answered:
// ok + busy + full + error == sent.
TEST(NetServerLoopback, FdExhaustionWaitsForACloseInsteadOfSpinning) {
  constexpr std::size_t kClients = 40;
  const ServeWorld& w = SharedServeWorld();
  const auto model = ModelFor(w, serve::Signal::kNovelty,
                              core::DefaultingMode::kPermanent);
  NetServerConfig cfg;
  cfg.edge_threads = 2;
  ServerRunner server(model, cfg);
  FdStarvedClients clients(kClients, 6);

  std::vector<std::uint8_t> open;
  AppendRequestFrame(open, {kProtocolVersion, MsgType::kOpenSession, 1, 0});
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.Port());
  for (const int fd : clients.fds) {
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0);
    ASSERT_EQ(::send(fd, open.data(), open.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(open.size()));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::uint64_t before = server.server().IoSyscalls();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const std::uint64_t spent = server.server().IoSyscalls() - before;
  EXPECT_LT(spent, 1000u) << "IO syscalls in 1 s past the fd limit";

  // Read each answered connection's reply, then close it.
  Tally tally;
  std::vector<pollfd> waiting;
  while (tally.Total() < kClients) {
    waiting.clear();
    for (const int fd : clients.fds) {
      if (fd >= 0) waiting.push_back({fd, POLLIN, 0});
    }
    ASSERT_GT(::poll(waiting.data(), waiting.size(), 5000), 0)
        << waiting.size() << " connections never accepted";
    for (const pollfd& p : waiting) {
      if (p.revents == 0) continue;
      std::uint8_t frame[kLengthPrefixBytes + kReplyBytes];
      ASSERT_EQ(::recv(p.fd, frame, sizeof frame, MSG_WAITALL),
                static_cast<ssize_t>(sizeof frame));
      Reply reply;
      ASSERT_EQ(DecodeReply({frame + kLengthPrefixBytes, kReplyBytes}, reply),
                DecodeResult::kOk);
      tally.Add(reply);
      ::close(p.fd);
      std::replace(clients.fds.begin(), clients.fds.end(), p.fd, -1);
    }
  }
  EXPECT_EQ(tally.ok, kClients);

  clients.RestoreLimit();
  Client observer;
  observer.Connect("127.0.0.1", server.Port());
  BoundReplyWait(observer);
  ServerStats stats = observer.Stats();
  for (int polls = 0; stats.connections != 1; ++polls) {
    ASSERT_LT(polls, 100000) << stats.connections << " connections left";
    stats = observer.Stats();
  }
  EXPECT_EQ(stats.open_sessions, 0u);
  EXPECT_EQ(stats.busy + stats.rejected_opens + stats.errors, 0u);
}

}  // namespace
}  // namespace osap::net
