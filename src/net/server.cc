#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/check.h"

namespace osap::net {

namespace {

/// listen() backlog of the listener.
constexpr int kListenBacklog = 128;
/// Cap on concurrently open connections, shared across edges (Start()
/// lowers it to what RLIMIT_NOFILE leaves).
constexpr std::size_t kMaxConnections = 4096;
/// Readiness events one epoll_wait gathers at most.
constexpr std::size_t kMaxEvents = 256;
/// epoll tags of the listener and the wake eventfd; any other tag is a
/// connection slot.
constexpr std::uint64_t kListenTag = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kWakeTag = kListenTag - 1;
/// Compact a connection buffer once this many consumed bytes accumulate.
constexpr std::size_t kCompactAbove = 64 * 1024;
/// Graceful-shutdown budget: after Stop(), each edge keeps answering and
/// flushing for at most this long before closing its connections.
constexpr std::chrono::seconds kDrainDeadline{5};

[[noreturn]] void ThrowErrno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " +
                           std::strerror(errno));
}

/// Adds `fd` to `epoll_fd`'s interest set under `tag`.
bool Watch(int epoll_fd, int fd, std::uint32_t events, std::uint64_t tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  return ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0;
}

/// Drops the consumed prefix [0, off) of a connection buffer: all of it
/// once everything is consumed, otherwise only past kCompactAbove.
void Compact(std::vector<std::uint8_t>& buf, std::size_t& off) {
  if (off == buf.size()) {
    buf.clear();
    off = 0;
  } else if (off >= kCompactAbove) {
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(off));
    off = 0;
  }
}

}  // namespace

/// Per-connection state. Objects are recycled through a free list - the
/// input and output buffers and the session list keep their capacity
/// across connections, so steady-state accept/close churn touches no
/// allocator.
struct Connection {
  int fd = -1;
  bool open = false;
  /// Reads deferred (TCP pushback): the admitted backlog reached
  /// pause_reads_above or the unsent reply bytes reached
  /// kPauseUnsentBytes; bytes stay in the kernel receive buffer until
  /// both halve.
  bool paused = false;
  bool want_write = false;  // EPOLLOUT armed (partial write left over)
  bool dirty = false;       // in Edge::dirty: flushed this round
  std::uint32_t in_flight = 0;  // admitted STEPs not yet answered

  std::vector<std::uint8_t> in;  // unparsed bytes live at [in_off, size)
  std::size_t in_off = 0;

  std::vector<std::uint8_t> out;  // unsent reply bytes live at [out_off, size)
  std::size_t out_off = 0;

  std::vector<std::uint64_t> sessions;  // session ids this peer owns
};

/// One edge thread's whole world: its epoll instance, wake eventfd,
/// connection slab and pending queue. Everything here is touched by
/// exactly one thread (the edge's loop) except the inbox, which edge 0
/// fills, and the trailing atomics, read cross-edge for placement, STATS
/// aggregation and the shutdown summary. Per-session state is not here:
/// a session's owning connection and queued-STEP count live in its service-side
/// SubmitterTag (DecisionService::TagOf).
struct Edge {
  /// One admitted STEP awaiting its decision round.
  struct PendingStep {
    std::uint32_t conn = 0;
    std::uint64_t request_id = 0;
    std::uint64_t session = 0;
    mdp::State state;  // decoded off the wire; storage recycled
  };

  std::size_t index = 0;  // == its shard in the service

  int wake_fd = -1;   // eventfd: Stop() or a handoff -> loop wakeup
  int epoll_fd = -1;  // watches the wake fd, every conn (edge 0: listener)
  std::mutex inbox_mutex;
  std::vector<int> inbox;  // placed here by edge 0, not adopted yet
  std::array<epoll_event, kMaxEvents> events{};
  /// Uninitialized kReadChunk-byte recv target shared by every
  /// connection: only the bytes received are appended to a connection's
  /// input buffer.
  std::unique_ptr<std::uint8_t[]> read_chunk =
      std::make_unique_for_overwrite<std::uint8_t[]>(kReadChunk);
  std::exception_ptr failure;

  std::vector<std::unique_ptr<Connection>> connections;
  std::vector<std::uint32_t> free_conn_slots;
  /// Slots closed in the current IO round; they join free_conn_slots
  /// only once the round's gathered events are fully processed, so a
  /// stale event for a dead fd can never alias a freshly accepted one.
  std::vector<std::uint32_t> pending_free_slots_swap;

  std::vector<PendingStep> pending;
  std::vector<mdp::State> state_pool;   // recycled PendingStep storage
  std::vector<std::uint32_t> dirty;     // connections awaiting a flush
  std::vector<std::uint32_t> unpaused;  // resumed this round: drain them

  // Round scratch (persists across batches; steady state allocates
  // nothing).
  std::vector<serve::DecisionService::Request> round_requests;
  std::vector<mdp::Action> round_actions;

  /// Open connections placed here: edge 0 counts one when it places it,
  /// this edge uncounts it when it closes. Placement reads every edge's.
  std::atomic<std::size_t> open_connections{0};
  // Published counters: written by this edge (relaxed), summed by any
  // edge answering STATS and by NetServer::Stats().
  std::atomic<std::uint64_t> decided{0};
  std::atomic<std::uint64_t> busy{0};
  std::atomic<std::uint64_t> rejected_opens{0};
  std::atomic<std::uint64_t> epochs{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> session_bytes{0};  // shard bytes at last STATS
  /// Every IO syscall the edge loop issues (epoll_wait/epoll_ctl/accept4/
  /// recv/sendmsg/wake reads/poll) - the numerator of the shutdown
  /// summary's syscalls-per-decision.
  std::atomic<std::uint64_t> io_syscalls{0};
};

NetServer::NetServer(std::shared_ptr<const serve::ServingModel> model,
                     NetServerConfig config)
    : model_(std::move(model)),
      config_(config),
      // One shard per edge thread: edge e owns shard e outright.
      service_(
          [&]() -> std::shared_ptr<const serve::ServingModel> {
            OSAP_REQUIRE(model_ != nullptr, "NetServer: null model");
            OSAP_REQUIRE(config.edge_threads >= 1,
                         "NetServer: edge_threads must be >= 1");
            return model_;
          }(),
          {.shard_count = config.edge_threads}) {
  edges_.reserve(config_.edge_threads);
  for (std::size_t e = 0; e < config_.edge_threads; ++e) {
    edges_.push_back(std::make_unique<Edge>());
    edges_.back()->index = e;
  }
}

NetServer::~NetServer() {
  for (auto& edge : edges_) {
    for (auto& conn : edge->connections) {
      if (conn && conn->open && conn->fd >= 0) ::close(conn->fd);
    }
    if (edge->wake_fd >= 0) ::close(edge->wake_fd);
    if (edge->epoll_fd >= 0) ::close(edge->epoll_fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void NetServer::Start() {
  OSAP_REQUIRE(listen_fd_ < 0, "NetServer::Start: already started");
  // One plain listener: a second server on the port fails to bind
  // (EADDRINUSE) instead of sharing its connections.
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) ThrowErrno("NetServer: socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    ThrowErrno("NetServer: bind");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    ThrowErrno("NetServer: getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, kListenBacklog) < 0) {
    ThrowErrno("NetServer: listen");
  }

  for (auto& edge : edges_) {
    edge->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (edge->wake_fd < 0) ThrowErrno("NetServer: eventfd");
    edge->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (edge->epoll_fd < 0) ThrowErrno("NetServer: epoll_create1");
    if (!Watch(edge->epoll_fd, edge->wake_fd, EPOLLIN, kWakeTag)) {
      ThrowErrno("NetServer: epoll_ctl(wake)");
    }
  }
  // Level-triggered: AcceptReady accepts until EAGAIN anyway.
  if (!Watch(edges_[0]->epoll_fd, listen_fd_, EPOLLIN, kListenTag)) {
    ThrowErrno("NetServer: epoll_ctl(listen)");
  }

  // Connections get what the soft fd limit leaves above the server's own
  // fds (the last one made stands in for the count of those open).
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) < 0) {
    ThrowErrno("NetServer: getrlimit");
  }
  const auto used = static_cast<rlim_t>(edges_.back()->epoll_fd) + 1;
  max_connections_ = std::min<rlim_t>(
      kMaxConnections, limit.rlim_cur > used ? limit.rlim_cur - used : 0);
}

void NetServer::Stop() {
  stop_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  for (auto& edge : edges_) {
    if (edge->wake_fd < 0) continue;
    // Best effort: a full eventfd still wakes the loop.
    [[maybe_unused]] const ssize_t n =
        ::write(edge->wake_fd, &one, sizeof one);
  }
}

void NetServer::Run() {
  OSAP_REQUIRE(edges_[0]->epoll_fd >= 0,
               "NetServer::Run: call Start() first");
  edge_runners_.clear();
  edge_runners_.reserve(edges_.size() - 1);
  for (std::size_t e = 1; e < edges_.size(); ++e) {
    edge_runners_.emplace_back([this, e] {
      Edge& edge = *edges_[e];
      try {
        RunEdge(edge);
      } catch (...) {
        edge.failure = std::current_exception();
        Stop();  // one edge down takes the server down loudly
      }
    });
  }
  try {
    RunEdge(*edges_[0]);
  } catch (...) {
    edges_[0]->failure = std::current_exception();
    Stop();
  }
  for (std::thread& runner : edge_runners_) runner.join();
  edge_runners_.clear();
  // Fds placed on an edge after it stopped looking at its inbox.
  for (auto& edge : edges_) {
    for (const int fd : edge->inbox) ::close(fd);
    edge->open_connections.fetch_sub(edge->inbox.size(),
                                     std::memory_order_relaxed);
    edge->inbox.clear();
  }
  for (auto& edge : edges_) {
    if (edge->failure != nullptr) {
      const std::exception_ptr failure = edge->failure;
      edge->failure = nullptr;
      std::rethrow_exception(failure);
    }
  }
}

void NetServer::RunEdge(Edge& edge) {
  while (!stop_.load(std::memory_order_acquire)) {
    edge.pending_free_slots_swap.clear();
    // Block only when idle; with admitted work pending or replies queued
    // by the last resume, gather whatever arrived and carry on.
    Pump(edge, edge.pending.empty() && edge.dirty.empty());
    // Flush admission replies (BUSY / FULL / opens) and write
    // continuations before the decision round so rejected clients hear
    // back without waiting on compute.
    FlushDirty(edge);
    if (!edge.pending.empty()) RunBatch(edge);
    FlushDirty(edge);
    ResumeReads(edge);
    // Slots freed this iteration become reusable only now (stale events
    // for a dead fd must never alias a fresh connection).
    for (const std::uint32_t slot : edge.pending_free_slots_swap) {
      edge.free_conn_slots.push_back(slot);
    }
  }
  DrainOnStop(edge);
}

void NetServer::DrainOnStop(Edge& edge) {
  // Graceful shutdown: every STEP admitted before the stop gets its
  // decision, every queued reply reaches the socket (bounded blocking),
  // and only then do connections close - a client that stops sending on
  // SIGTERM sees all of its sent requests answered before EOF. Nothing
  // new is read or accepted once the stop flag is up.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + kDrainDeadline;
  // Pipelined duplicates defer one round each, so loop batches until the
  // admitted backlog is empty.
  while (!edge.pending.empty() && Clock::now() < deadline) {
    RunBatch(edge);
    FlushDirty(edge);
  }
  for (std::size_t slot = 0; slot < edge.connections.size(); ++slot) {
    Connection* conn = edge.connections[slot].get();
    if (conn == nullptr || !conn->open) continue;
    while (conn->open && conn->out_off < conn->out.size()) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) break;
      pollfd pfd{};
      pfd.fd = conn->fd;
      pfd.events = POLLOUT;
      const int pr = ::poll(&pfd, 1, static_cast<int>(left.count()));
      edge.io_syscalls.fetch_add(1, std::memory_order_relaxed);
      if (pr < 0 && errno == EINTR) continue;  // deadline still bounds us
      if (pr <= 0) break;
      DirectFlush(edge, slot);  // may close the connection on error
    }
  }
  for (std::size_t slot = 0; slot < edge.connections.size(); ++slot) {
    Connection* conn = edge.connections[slot].get();
    if (conn != nullptr && conn->open) CloseConnection(edge, slot);
  }
}

void NetServer::Pump(Edge& edge, bool block) {
  int n;
  for (;;) {
    n = ::epoll_wait(edge.epoll_fd, edge.events.data(),
                     static_cast<int>(edge.events.size()), block ? -1 : 0);
    edge.io_syscalls.fetch_add(1, std::memory_order_relaxed);
    if (n >= 0) break;
    if (errno == EINTR) continue;
    ThrowErrno("NetServer: epoll_wait");
  }
  for (int i = 0; i < n; ++i) {
    const std::uint32_t events = edge.events[i].events;
    const std::uint64_t tag = edge.events[i].data.u64;
    if (tag == kListenTag) {
      AcceptReady(edge);
      continue;
    }
    if (tag == kWakeTag) {
      std::uint64_t drained = 0;
      [[maybe_unused]] const ssize_t r =
          ::read(edge.wake_fd, &drained, sizeof drained);
      edge.io_syscalls.fetch_add(1, std::memory_order_relaxed);
      std::vector<int> placed;
      {
        const std::lock_guard<std::mutex> lock(edge.inbox_mutex);
        placed.swap(edge.inbox);
      }
      for (const int fd : placed) Adopt(edge, fd);
      continue;
    }
    const auto slot = static_cast<std::size_t>(tag);
    Connection& conn = *edge.connections[slot];
    // A peer closed earlier in this same event array: its slot is not
    // recycled until the end of the round, so stale events are
    // recognizable and ignored here.
    if (!conn.open) continue;
    if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
      CloseConnection(edge, slot);
      continue;
    }
    // A partial write's continuation joins the round's FlushDirty.
    if ((events & EPOLLOUT) != 0 && !conn.dirty) {
      conn.dirty = true;
      edge.dirty.push_back(static_cast<std::uint32_t>(slot));
    }
    if ((events & EPOLLIN) != 0 && !DrainSocket(edge, slot)) {
      CloseConnection(edge, slot);
    }
  }
}

void NetServer::AcceptReady(Edge& edge) {
  bool paused = false;
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    edge.io_syscalls.fetch_add(1, std::memory_order_relaxed);
    if (fd < 0) {
      if (errno == EINTR) continue;
      const bool out_of_fds = errno == EMFILE || errno == ENFILE;
      if (out_of_fds && !paused) {
        // The level-triggered listener would spin the loop: it leaves the
        // epoll set until a connection closes (ResumeAccepts). A close
        // before the flag went up resumed nothing: accept once more.
        ::epoll_ctl(edge.epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
        edge.io_syscalls.fetch_add(1, std::memory_order_relaxed);
        accept_paused_.store(true);
        paused = true;
        continue;
      }
      if (paused && !out_of_fds) ResumeAccepts(edge);
      return;  // EAGAIN, or transient accept failure: try next event
    }
    if (paused) {
      ResumeAccepts(edge);
      paused = false;
    }
    // Placement: the edge with the fewest open connections, the lowest
    // index on a tie. The cap counts every edge's.
    std::size_t open = 0;
    std::size_t owner = 0;
    std::size_t fewest = std::numeric_limits<std::size_t>::max();
    for (std::size_t e = 0; e < edges_.size(); ++e) {
      const std::size_t n =
          edges_[e]->open_connections.load(std::memory_order_acquire);
      open += n;
      if (n < fewest) {
        fewest = n;
        owner = e;
      }
    }
    if (open >= max_connections_) {
      ::close(fd);  // hard admission: no fd budget to even say BUSY
      continue;
    }
    Edge& target = *edges_[owner];
    target.open_connections.fetch_add(1, std::memory_order_relaxed);
    if (&target == &edge) {
      Adopt(edge, fd);
      continue;
    }
    {
      const std::lock_guard<std::mutex> lock(target.inbox_mutex);
      target.inbox.push_back(fd);
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t w =
        ::write(target.wake_fd, &one, sizeof one);
    edge.io_syscalls.fetch_add(1, std::memory_order_relaxed);
  }
}

void NetServer::Adopt(Edge& edge, int fd) {
  // Small pipelined frames must not wait out Nagle on the reply path.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  std::uint32_t slot;
  if (!edge.free_conn_slots.empty()) {
    slot = edge.free_conn_slots.back();
    edge.free_conn_slots.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(edge.connections.size());
    edge.connections.push_back(std::make_unique<Connection>());
  }
  // Bytes that arrived before this ADD are reported by it.
  edge.io_syscalls.fetch_add(1, std::memory_order_relaxed);
  if (!Watch(edge.epoll_fd, fd, EPOLLIN | EPOLLET, slot)) {
    ::close(fd);
    edge.free_conn_slots.push_back(slot);
    edge.open_connections.fetch_sub(1, std::memory_order_release);
    ResumeAccepts(edge);
    return;
  }
  Connection& conn = *edge.connections[slot];
  conn.fd = fd;
  conn.open = true;
}

void NetServer::ResumeAccepts(Edge& edge) {
  if (!accept_paused_.exchange(false)) return;
  // epoll_ctl on edge 0's set is safe from any thread.
  Watch(edges_[0]->epoll_fd, listen_fd_, EPOLLIN, kListenTag);
  edge.io_syscalls.fetch_add(1, std::memory_order_relaxed);
}

bool NetServer::DrainSocket(Edge& edge, std::size_t slot) {
  Connection& conn = *edge.connections[slot];
  // Edge-triggered: drain until EAGAIN, or stop early on pause (the
  // unread bytes close the TCP window - that IS the backpressure).
  // recv lands in the uninitialized read_chunk and only the bytes
  // received are appended: growing conn.in by kReadChunk instead would
  // zero-fill 64 KiB per call.
  std::uint8_t* const chunk = edge.read_chunk.get();
  while (!conn.paused) {
    const ssize_t r = ::recv(conn.fd, chunk, kReadChunk, 0);
    edge.io_syscalls.fetch_add(1, std::memory_order_relaxed);
    if (r > 0) {
      conn.in.insert(conn.in.end(), chunk, chunk + r);
      if (!ParseBuffered(edge, slot)) return false;
      continue;
    }
    if (r == 0) return false;  // EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
  return true;
}

bool NetServer::ParseBuffered(Edge& edge, std::size_t slot) {
  Connection& conn = *edge.connections[slot];
  // The largest legal request is a STEP carrying the model's state: a
  // longer length prefix closes the connection before its body arrives,
  // so a peer holds at most one such frame of partial input.
  const std::size_t max_body =
      StepFrameBytes(model_->InputSize()) - kLengthPrefixBytes;
  while (!conn.paused) {
    const std::size_t avail = conn.in.size() - conn.in_off;
    if (avail < kLengthPrefixBytes) break;
    const std::uint32_t body = GetU32(conn.in.data() + conn.in_off);
    if (body > max_body || body < kRequestHeaderBytes) {
      return false;  // unframeable stream: no way to resynchronize
    }
    if (avail < kLengthPrefixBytes + body) break;
    DecodedRequest request;
    if (DecodeRequest({conn.in.data() + conn.in_off + kLengthPrefixBytes,
                       body},
                      request) != DecodeResult::kOk) {
      return false;
    }
    conn.in_off += kLengthPrefixBytes + body;
    HandleRequest(edge, slot, request);
  }
  Compact(conn.in, conn.in_off);
  return true;
}

void NetServer::HandleRequest(Edge& edge, std::size_t slot,
                              const DecodedRequest& request) {
  Connection& conn = *edge.connections[slot];
  Reply reply;
  reply.type = request.header.type;
  reply.request_id = request.header.request_id;
  reply.session_id = request.header.session_id;
  reply.epoch = service_.RoundCount();

  // A session is addressable only by the connection that opened it:
  // TagOf finds it only if it is open on this edge's shard (a session
  // opened on another edge's listener is kError here - ids are
  // edge-affine by design), and its tag's owner must be this connection.
  switch (request.header.type) {
    case MsgType::kOpenSession: {
      if (config_.max_sessions > 0 &&
          service_.ActiveSessionCount() >= config_.max_sessions) {
        reply.status = Status::kFull;
        edge.rejected_opens.fetch_add(1, std::memory_order_relaxed);
        QueueReply(edge, slot, reply);
        return;
      }
      const std::uint64_t id = service_.OpenSession(edge.index);
      service_.TagOf(edge.index, id)->owner = static_cast<std::uint32_t>(slot);
      conn.sessions.push_back(id);
      reply.status = Status::kOk;
      reply.session_id = id;
      QueueReply(edge, slot, reply);
      return;
    }
    case MsgType::kCloseSession: {
      const std::uint64_t id = request.header.session_id;
      const auto* tag = service_.TagOf(edge.index, id);
      if (tag == nullptr || tag->owner != slot) {
        reply.status = Status::kError;
        edge.errors.fetch_add(1, std::memory_order_relaxed);
        QueueReply(edge, slot, reply);
        return;
      }
      // A CLOSE overtaking its own pipelined STEPs: answer those with
      // ERROR first (never drop them silently), then tear down.
      if (tag->queued > 0) FailPendingOf(edge, id);
      service_.CloseSession(id);
      for (std::size_t i = 0; i < conn.sessions.size(); ++i) {
        if (conn.sessions[i] == id) {
          conn.sessions[i] = conn.sessions.back();
          conn.sessions.pop_back();
          break;
        }
      }
      reply.status = Status::kOk;
      QueueReply(edge, slot, reply);
      return;
    }
    case MsgType::kStats: {
      const ServerStats stats = BuildStats(edge);
      reply.status = Status::kOk;
      QueueReply(edge, slot, reply, &stats);
      return;
    }
    case MsgType::kStep: {
      const std::uint64_t id = request.header.session_id;
      auto* tag = service_.TagOf(edge.index, id);
      if (tag == nullptr || tag->owner != slot ||
          request.state_dim != model_->InputSize()) {
        reply.status = Status::kError;
        edge.errors.fetch_add(1, std::memory_order_relaxed);
        QueueReply(edge, slot, reply);
        return;
      }
      // Reserve a slot in the shared in-flight budget; release the
      // reservation on any rejection.
      const std::size_t prev =
          in_flight_.fetch_add(1, std::memory_order_relaxed);
      if (config_.max_in_flight > 0 && prev >= config_.max_in_flight) {
        in_flight_.fetch_sub(1, std::memory_order_relaxed);
        reply.status = Status::kBusy;
        edge.busy.fetch_add(1, std::memory_order_relaxed);
        QueueReply(edge, slot, reply);
        return;
      }
      Edge::PendingStep step;
      if (!edge.state_pool.empty()) {
        step.state = std::move(edge.state_pool.back());
        edge.state_pool.pop_back();
      }
      step.state.resize(request.state_dim);
      if (!request.CopyState(step.state)) {
        // A NaN or infinite state would reach the fallback's buffer
        // mapping or score NaN and never default: refuse it.
        in_flight_.fetch_sub(1, std::memory_order_relaxed);
        edge.state_pool.push_back(std::move(step.state));
        reply.status = Status::kError;
        edge.errors.fetch_add(1, std::memory_order_relaxed);
        QueueReply(edge, slot, reply);
        return;
      }
      step.conn = static_cast<std::uint32_t>(slot);
      step.request_id = request.header.request_id;
      step.session = id;
      edge.pending.push_back(std::move(step));
      ++tag->queued;
      ++conn.in_flight;
      if (config_.pause_reads_above > 0 &&
          conn.in_flight >= config_.pause_reads_above) {
        conn.paused = true;
      }
      return;
    }
  }
  // Unknown types never reach here (DecodeRequest rejects them).
}

void NetServer::RunBatch(Edge& edge) {
  // Every pending STEP goes to the service; a session's pipelined repeats
  // come back deferred (its next state depends on this round's action)
  // and stay pending for the next round.
  edge.round_requests.clear();
  for (const Edge::PendingStep& step : edge.pending) {
    edge.round_requests.push_back({step.session, &step.state});
  }
  edge.round_actions.resize(edge.round_requests.size());
  // A round that throws is answered ERROR as a whole (DESIGN.md 10.1):
  // one bad batch must not end the process, and with it every other
  // session on every edge.
  std::span<const std::size_t> deferred;
  bool failed = false;
  try {
    deferred = service_.DecideBatch(edge.round_requests, edge.round_actions);
  } catch (const std::exception&) {
    failed = true;
  }
  edge.epochs.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t epoch = service_.RoundCount();

  // One pass: encode the decided steps' replies into the owning
  // connections' output buffers (flushed after the batch - the decision
  // path itself never touched a socket) and compact the deferred ones to
  // the front, in arrival order.
  std::size_t write = 0;
  std::size_t next_deferred = 0;
  for (std::size_t i = 0; i < edge.pending.size(); ++i) {
    Edge::PendingStep& step = edge.pending[i];
    if (next_deferred < deferred.size() && deferred[next_deferred] == i) {
      ++next_deferred;
      if (write != i) edge.pending[write] = std::move(step);
      ++write;
      continue;
    }
    Reply reply;
    reply.type = MsgType::kStep;
    if (failed) {
      reply.status = Status::kError;
    } else {
      reply.status = Status::kOk;
      reply.flags = service_.Defaulted(step.session) ? kFlagDefaulted : 0;
      reply.action = static_cast<std::int32_t>(edge.round_actions[i]);
    }
    reply.request_id = step.request_id;
    reply.session_id = step.session;
    reply.epoch = epoch;
    QueueReply(edge, step.conn, reply);
    --service_.TagOf(edge.index, step.session)->queued;
    --edge.connections[step.conn]->in_flight;
    edge.state_pool.push_back(std::move(step.state));
  }
  const std::size_t answered = edge.pending.size() - write;
  edge.pending.resize(write);
  (failed ? edge.errors : edge.decided)
      .fetch_add(answered, std::memory_order_relaxed);
  in_flight_.fetch_sub(answered, std::memory_order_relaxed);
}

void NetServer::ResumeReads(Edge& edge) {
  // Parse what the resumed connections' buffers already hold, then drain
  // their sockets (a paused edge-triggered fd owes us no further EPOLLIN
  // for bytes that arrived while paused). Skipped once stopping - the
  // drain path answers what is queued but reads nothing new.
  if (!stop_.load(std::memory_order_acquire)) {
    for (const std::uint32_t slot : edge.unpaused) {
      Connection& conn = *edge.connections[slot];
      if (!conn.open || conn.paused) continue;
      if (!ParseBuffered(edge, slot)) {
        CloseConnection(edge, slot);
        continue;
      }
      // Parsing buffered frames may re-pause; only a still-unpaused
      // connection is drained.
      if (conn.open && !conn.paused && !DrainSocket(edge, slot)) {
        CloseConnection(edge, slot);
      }
    }
  }
  edge.unpaused.clear();
}

void NetServer::FailPendingOf(Edge& edge, std::uint64_t session) {
  std::size_t write = 0;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < edge.pending.size(); ++i) {
    Edge::PendingStep& step = edge.pending[i];
    if (step.session != session) {
      if (write != i) edge.pending[write] = std::move(edge.pending[i]);
      ++write;
      continue;
    }
    Reply reply;
    reply.type = MsgType::kStep;
    reply.status = Status::kError;
    reply.request_id = step.request_id;
    reply.session_id = step.session;
    reply.epoch = service_.RoundCount();
    QueueReply(edge, step.conn, reply);
    --edge.connections[step.conn]->in_flight;
    edge.state_pool.push_back(std::move(step.state));
    ++failed;
  }
  edge.pending.resize(write);
  if (failed > 0) {
    in_flight_.fetch_sub(failed, std::memory_order_relaxed);
    edge.errors.fetch_add(failed, std::memory_order_relaxed);
  }
}

void NetServer::CloseConnection(Edge& edge, std::size_t slot) {
  Connection& conn = *edge.connections[slot];
  if (!conn.open) return;
  // Drop this peer's pending steps without replies (the socket is gone);
  // the in-flight budget must still come back down (the sessions close
  // below, taking their queued counts with them).
  std::size_t write = 0;
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < edge.pending.size(); ++i) {
    Edge::PendingStep& step = edge.pending[i];
    if (step.conn != slot) {
      if (write != i) edge.pending[write] = std::move(edge.pending[i]);
      ++write;
      continue;
    }
    edge.state_pool.push_back(std::move(step.state));
    ++dropped;
  }
  edge.pending.resize(write);
  if (dropped > 0) in_flight_.fetch_sub(dropped, std::memory_order_relaxed);

  for (const std::uint64_t id : conn.sessions) service_.CloseSession(id);
  conn.sessions.clear();

  // Stop watching the fd before it goes away.
  ::epoll_ctl(edge.epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
  edge.io_syscalls.fetch_add(1, std::memory_order_relaxed);
  ::close(conn.fd);
  conn.fd = -1;
  conn.open = false;
  conn.paused = false;
  conn.want_write = false;
  conn.dirty = false;
  conn.in_flight = 0;
  conn.in.clear();
  conn.in_off = 0;
  conn.out.clear();
  conn.out_off = 0;
  edge.open_connections.fetch_sub(1, std::memory_order_release);
  ResumeAccepts(edge);
  // Recycle the slot only after the current IO round is fully processed
  // (RunEdge moves these into free_conn_slots), so stale events for the
  // old fd cannot alias a fresh connection.
  edge.pending_free_slots_swap.push_back(static_cast<std::uint32_t>(slot));
}

void NetServer::QueueReply(Edge& edge, std::size_t slot, const Reply& reply,
                           const ServerStats* stats) {
  Connection& conn = *edge.connections[slot];
  AppendReplyFrame(conn.out, reply, stats);
  if (conn.out.size() - conn.out_off >= kPauseUnsentBytes) conn.paused = true;
  if (!conn.dirty) {
    conn.dirty = true;
    edge.dirty.push_back(static_cast<std::uint32_t>(slot));
  }
}

void NetServer::FlushDirty(Edge& edge) {
  for (const std::uint32_t slot : edge.dirty) {
    Connection& conn = *edge.connections[slot];
    conn.dirty = false;
    if (!conn.open) continue;
    DirectFlush(edge, slot);
    if (!conn.open) continue;
    // Every reply that lowers the backlog or the unsent bytes marks its
    // connection dirty, so this is the one place a pause ends.
    const std::size_t unsent = conn.out.size() - conn.out_off;
    if (conn.paused && unsent <= kPauseUnsentBytes / 2 &&
        (config_.pause_reads_above == 0 ||
         conn.in_flight <= config_.pause_reads_above / 2)) {
      conn.paused = false;
      edge.unpaused.push_back(slot);
    }
    // Re-arm the interest set only when EPOLLOUT must turn on or off.
    const bool want_write = unsent > 0;
    if (want_write == conn.want_write) continue;
    conn.want_write = want_write;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET | (want_write ? EPOLLOUT : 0u);
    ev.data.u64 = slot;
    ::epoll_ctl(edge.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
    edge.io_syscalls.fetch_add(1, std::memory_order_relaxed);
  }
  edge.dirty.clear();
}

void NetServer::DirectFlush(Edge& edge, std::size_t slot) {
  Connection& conn = *edge.connections[slot];
  if (conn.out_off == conn.out.size()) return;
  iovec iov{conn.out.data() + conn.out_off, conn.out.size() - conn.out_off};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  // sendmsg, not write: MSG_NOSIGNAL turns a peer reset mid-reply into
  // EPIPE instead of a process-fatal SIGPIPE.
  ssize_t wrote;
  do {
    wrote = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    edge.io_syscalls.fetch_add(1, std::memory_order_relaxed);
  } while (wrote < 0 && errno == EINTR);
  if (wrote < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK) CloseConnection(edge, slot);
    return;
  }
  conn.out_off += static_cast<std::size_t>(wrote);
  Compact(conn.out, conn.out_off);
}

ServerStats NetServer::BuildStats(Edge& edge) {
  edge.session_bytes.store(
      service_.MemoryStatsOfShard(edge.index).SessionBytes(),
      std::memory_order_relaxed);
  return Stats();
}

ServerStats NetServer::Stats() const {
  ServerStats stats;
  stats.open_sessions = service_.ActiveSessionCount();
  for (const auto& e : edges_) {
    stats.session_bytes += e->session_bytes.load(std::memory_order_relaxed);
    stats.decided += e->decided.load(std::memory_order_relaxed);
    stats.busy += e->busy.load(std::memory_order_relaxed);
    stats.rejected_opens +=
        e->rejected_opens.load(std::memory_order_relaxed);
    stats.epochs += e->epochs.load(std::memory_order_relaxed);
    stats.errors += e->errors.load(std::memory_order_relaxed);
    stats.connections += e->open_connections.load(std::memory_order_relaxed);
  }
  stats.in_flight = in_flight_.load(std::memory_order_relaxed);
  return stats;
}

std::uint64_t NetServer::IoSyscalls() const {
  std::uint64_t total = 0;
  for (const auto& e : edges_) {
    total += e->io_syscalls.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace osap::net
