// Per-edge server state shared between NetServer and its EpollBackend
// (DESIGN.md §10.5). The definitions live in this internal header so
// backend_epoll.cc can drive the same connection slabs and pending queues
// as server.cc without a copy. Every field is touched by exactly one edge
// thread except the trailing published atomics. Per-session state is not
// here: a session's owning connection and queued-STEP count live in its
// service-side SubmitterTag (DecisionService::TagOf).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "mdp/types.h"
#include "serve/decision_service.h"

namespace osap::net {

class EpollBackend;

/// The most bytes one recv() reads into a connection's input buffer.
constexpr std::size_t kReadChunk = 64 * 1024;

/// Per-connection state. Objects are recycled through a free list - the
/// input buffer, output frame queue and session list keep their capacity
/// across connections, so steady-state accept/close churn touches no
/// allocator (the frame buffers themselves recycle through the edge's
/// spare-frame pool).
struct Connection {
  int fd = -1;
  bool open = false;
  /// Reads deferred (TCP pushback): this connection's admitted backlog
  /// crossed pause_reads_above; bytes stay in the kernel receive buffer
  /// until the backlog halves.
  bool paused = false;
  bool want_write = false;  // EPOLLOUT armed (partial write left over)
  bool dirty = false;       // queued replies awaiting a flush this round
  std::uint32_t in_flight = 0;  // admitted STEPs not yet answered

  std::vector<std::uint8_t> in;  // unparsed bytes live at [in_off, size)
  std::size_t in_off = 0;

  std::vector<std::vector<std::uint8_t>> out_q;  // encoded reply frames
  std::size_t out_head = 0;      // first not-fully-written frame
  std::size_t out_head_off = 0;  // bytes of out_q[out_head] already sent

  std::vector<std::uint64_t> sessions;  // session ids this peer owns
};

/// One edge thread's whole world: its SO_REUSEPORT listener, epoll loop,
/// wake eventfd, connection slab and pending queue. Everything here is
/// touched by exactly one thread (the edge's loop); only the trailing
/// atomics are read cross-edge, for STATS aggregation and the shutdown
/// summary.
struct Edge {
  /// One admitted STEP awaiting its decision round.
  struct PendingStep {
    std::uint32_t conn = 0;
    std::uint64_t request_id = 0;
    std::uint64_t session = 0;
    mdp::State state;  // decoded off the wire; storage recycled
  };

  std::size_t index = 0;        // == submitter group in the service
  std::size_t group_begin = 0;  // first service shard this edge owns

  int listen_fd = -1;
  int wake_fd = -1;  // eventfd: Stop() -> loop wakeup
  /// The edge's epoll loop; owns the readiness objects, never the
  /// sockets or the protocol state.
  std::unique_ptr<EpollBackend> backend;
  std::exception_ptr failure;

  std::vector<std::unique_ptr<Connection>> connections;
  std::vector<std::uint32_t> free_conn_slots;
  /// Slots closed in the current IO round; they join free_conn_slots
  /// only once the round's gathered events are fully processed, so a
  /// stale event for a dead fd can never alias a freshly accepted one.
  std::vector<std::uint32_t> pending_free_slots_swap;

  std::vector<PendingStep> pending;
  std::vector<std::size_t> shard_pending;  // admitted per owned lane
  std::vector<mdp::State> state_pool;      // recycled PendingStep storage
  /// Recycled reply-frame buffers (the slab behind the output queues).
  std::vector<std::vector<std::uint8_t>> spare_frames;
  std::vector<std::uint32_t> dirty;     // connections with queued replies
  std::vector<std::uint32_t> unpaused;  // resumed this batch: drain them

  // Round scratch (persists across batches; steady state allocates
  // nothing).
  std::vector<serve::DecisionService::Request> round_requests;
  std::vector<mdp::Action> round_actions;

  std::size_t opens_since_measure = 0;

  // Published counters: written by this edge (relaxed), summed by any
  // edge answering STATS and by NetServer::Stats().
  std::atomic<std::uint64_t> decided{0};
  std::atomic<std::uint64_t> busy{0};
  std::atomic<std::uint64_t> rejected_opens{0};
  std::atomic<std::uint64_t> epochs{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> session_bytes{0};  // cached group bytes
  /// Every IO syscall the edge loop issues (epoll_wait/epoll_ctl/accept4/
  /// recv/sendmsg/wake reads/poll) - the numerator of the shutdown
  /// summary's syscalls-per-decision.
  std::atomic<std::uint64_t> io_syscalls{0};
};

}  // namespace osap::net
