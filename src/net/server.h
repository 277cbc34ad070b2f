// NetServer: the binary-protocol front-end of the serving path
// (DESIGN.md §10).
//
// A thin, dumb edge in front of serve::DecisionService, shaped like a
// control/data-plane split: the edge owns sockets, framing and admission;
// the decision hot path (DecideBatch's shard lanes) never touches a file
// descriptor. The edge is N independent event-loop threads
// (NetServerConfig::edge_threads). Edge 0 accepts every connection on the
// one listener and places it on the edge with the fewest open
// connections, the lowest index on a tie; another edge gets it through
// its mutex-guarded inbox and wake eventfd. Session ids are edge-affine,
// so on a fresh server the k-th connection's sessions live on edge
// k % edge_threads. Each edge thread owns
//
//   - its own edge-triggered epoll instance, wake eventfd, inbox, recv
//     buffer and slab-recycled connections (one input and one output
//     byte buffer each) and pending queue,
//   - one shard of the service (the service has shard_count =
//     edge_threads, and edge e owns shard e): the edge opens its sessions
//     through OpenSession(e) and submits its micro-batches through
//     DecideBatch, so every shard has a single submitter and the edge
//     thread runs its shard itself. A session's edge is id % edge_threads.
//
// Nothing mutable is shared between edge threads on the read / decode /
// decide path; the only cross-edge state is the inboxes and a handful of
// atomics (the global in-flight admission budget, the stop flag, per-edge
// connection counts and stats counters summed on STATS). Each edge runs
// the same loop the single-threaded server ran:
//
//   Pump (one epoll_wait; accept4 or adopt new connections, recv
//   readable sockets to EAGAIN) -> parse frames, admit or reject each
//   request -> when admitted STEPs are pending, ONE DecideBatch over all
//   of them (micro-batching across connections and sessions) -> encode
//   replies into per-connection output buffers -> flush each with one
//   sendmsg, partial writes continue under EPOLLOUT.
//
// edge_threads = 1 is bit-identical to the classic single-loop server:
// one shard, ids handed out 0, 1, 2, ..., the same admission
// arithmetic (the shared budget sees exactly one edge), the same wire
// bytes.
//
// Admission control and backpressure, one cap per request kind:
//   - max_in_flight caps admitted-but-unanswered STEPs process-wide via
//     one shared atomic budget (reserve on admit, release on reply);
//     past it, new STEPs get an immediate BUSY reply instead of queueing.
//   - max_sessions gates OPEN_SESSION on the session table size; past
//     it, opens get FULL.
//   - A connection stops being READ while its own admitted backlog
//     reaches pause_reads_above or its unsent reply bytes reach
//     kPauseUnsentBytes: its bytes accumulate in the kernel receive
//     buffer, the TCP window closes, and the sender blocks - the
//     transport-level pushback behind the BUSY vocabulary, which also
//     bounds what a peer that never reads can make the edge hold. Reads
//     resume (and missed edge-triggered data is drained explicitly) once
//     both have halved.
//   - Connections are capped at the smaller of 4096 and what
//     RLIMIT_NOFILE leaves at Start(). Out of fds (EMFILE / ENFILE),
//     edge 0 stops polling the listener until any edge closes one.
// Every rejected request is answered (BUSY / FULL / ERROR) - nothing is
// silently dropped while a connection lives.
//
// Shutdown is graceful: Stop() (thread-safe, one eventfd write per edge)
// makes every edge stop reading, run decision rounds until its admitted
// backlog is answered, flush every queued reply (blocking-poll bounded by
// kDrainDeadline), and only then close its connections - a client that
// stops sending sees every request it managed to send answered before EOF.
//
// Threading: Start() binds and listens; Run() blocks running
// edge 0's loop on the calling thread and the other edges on internal
// threads until Stop(); tests and `osap_serve --listen` run Run() on
// whatever thread they like. Stats() is safe from any thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "mdp/types.h"
#include "net/protocol.h"
#include "serve/decision_service.h"
#include "serve/serving_model.h"

namespace osap::net {

struct Edge;

/// The most bytes one recv() reads into a connection's input buffer.
inline constexpr std::size_t kReadChunk = 64 * 1024;
/// A connection whose unsent reply bytes reach this stops being read
/// until they drain to half (the slow-reader bound).
inline constexpr std::size_t kPauseUnsentBytes = 256 * 1024;

struct NetServerConfig {
  /// TCP port to listen on; 0 picks an ephemeral port (see Port()).
  std::uint16_t port = 0;
  /// Independent event-loop threads, each owning one shard of the
  /// service; edge 0 places every connection. Must be >= 1. 1 = the
  /// classic single-loop server.
  std::size_t edge_threads = 1;
  /// Process-wide cap on admitted STEPs awaiting a decision, enforced
  /// through one shared atomic budget; 0 = no cap.
  std::size_t max_in_flight = 64 * 1024;
  /// Stop reading a connection whose admitted backlog exceeds this
  /// (TCP pushback); reads resume once it drains to half. 0 disables.
  std::size_t pause_reads_above = 1024;
  /// OPEN_SESSION gate: max concurrently open sessions; 0 = no cap.
  std::size_t max_sessions = 1 << 20;
};

class NetServer {
 public:
  NetServer(std::shared_ptr<const serve::ServingModel> model,
            NetServerConfig config = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds + listens the one listener and sets up every edge (throws
  /// std::runtime_error on socket failure, EADDRINUSE included: one
  /// server per port). Call once before Run().
  void Start();

  /// The bound TCP port (valid after Start(); resolves port 0).
  std::uint16_t Port() const { return port_; }

  /// Runs the edge loops until Stop(): edge 0 on the calling thread,
  /// edges 1..N-1 on internal threads (joined before returning). Must
  /// follow Start(). An edge failure stops every edge and rethrows.
  void Run();

  /// Signals every edge loop to drain and return. Thread-safe; callable
  /// from signal-ish contexts (atomic flag + one eventfd write per edge).
  void Stop();

  /// Aggregated counters (relaxed sums of the per-edge atomics plus the
  /// shared budget). Safe from any thread, any time.
  ServerStats Stats() const;

  std::size_t EdgeCount() const { return edges_.size(); }

  /// Total IO syscalls issued by the edge loops so far (epoll_wait,
  /// recv, sendmsg, accept4, ...). Relaxed sum, safe from any thread;
  /// the denominator for syscalls-per-decision is Stats().decided.
  std::uint64_t IoSyscalls() const;

  const serve::DecisionService& service() const { return service_; }

 private:
  /// Edge e's event loop: runs until stop_, then drains gracefully.
  void RunEdge(Edge& edge);
  /// Post-stop drain: answer every admitted STEP, flush every queued
  /// reply (bounded blocking), then close the edge's connections.
  void DrainOnStop(Edge& edge);
  /// One gather-and-dispatch round: accepts, reads (parsed into pending
  /// steps as bytes land), write continuations (queued for FlushDirty),
  /// wake drains. Waits for new IO only when `block`; otherwise collects
  /// whatever is already ready and returns.
  void Pump(Edge& edge, bool block);
  /// Edge 0: accept4 until EAGAIN; each fd passes the shared connection
  /// cap and is placed on the edge with the fewest open connections
  /// (adopted here, or handed off through that edge's inbox). Out of
  /// fds, the listener leaves the epoll set.
  void AcceptReady(Edge& edge);
  /// Gives `fd` TCP_NODELAY and a slot, and adds it to edge's epoll set.
  void Adopt(Edge& edge, int fd);
  /// Puts the listener back into edge 0's epoll set if AcceptReady took
  /// it out; called on `edge`'s thread after each connection close.
  void ResumeAccepts(Edge& edge);
  /// Edge-triggered read: recv until EAGAIN (or pause), parsing as
  /// bytes land. False closes the connection (EOF / protocol error).
  bool DrainSocket(Edge& edge, std::size_t slot);
  /// Parses every complete frame in the connection's input buffer
  /// (stops early when the connection pauses). False on protocol error,
  /// which includes a length prefix above the largest legal request.
  bool ParseBuffered(Edge& edge, std::size_t slot);
  void HandleRequest(Edge& edge, std::size_t slot,
                     const DecodedRequest& request);
  void RunBatch(Edge& edge);
  /// Parses and drains every connection FlushDirty un-paused this round
  /// (a paused edge-triggered socket announces no new bytes). Skipped
  /// once stopping.
  void ResumeReads(Edge& edge);
  /// Answers and removes every pending STEP of `session` with kError
  /// (a CLOSE overtaking pipelined STEPs, never the normal path).
  void FailPendingOf(Edge& edge, std::uint64_t session);
  void CloseConnection(Edge& edge, std::size_t slot);
  void QueueReply(Edge& edge, std::size_t slot, const Reply& reply,
                  const ServerStats* stats = nullptr);
  /// Flushes every connection marked dirty this round (queued replies or
  /// an EPOLLOUT continuation), un-pauses those whose backlog and unsent
  /// bytes have halved, and arms EPOLLOUT while a partial write is left
  /// over.
  void FlushDirty(Edge& edge);
  /// One sendmsg (MSG_NOSIGNAL) of the connection's unsent output bytes;
  /// a short write leaves the rest for EPOLLOUT. The round's flush and
  /// the drain path.
  void DirectFlush(Edge& edge, std::size_t slot);
  /// Refreshes edge's session-bytes figure and sums every edge's
  /// published counters (the STATS reply payload).
  ServerStats BuildStats(Edge& edge);

  std::shared_ptr<const serve::ServingModel> model_;
  NetServerConfig config_;
  serve::DecisionService service_;

  std::vector<std::unique_ptr<Edge>> edges_;
  std::vector<std::thread> edge_runners_;  // edges 1..N-1 inside Run()
  int listen_fd_ = -1;  // in edge 0's epoll set
  std::uint16_t port_ = 0;
  std::size_t max_connections_ = 0;  // set by Start()
  std::atomic<bool> stop_{false};
  /// The listener is out of edge 0's epoll set (accept4 ran out of fds).
  std::atomic<bool> accept_paused_{false};

  // Shared admission budget (the only cross-edge mutable state on the
  // request path).
  std::atomic<std::size_t> in_flight_{0};
};

}  // namespace osap::net
