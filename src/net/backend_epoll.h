// The edge's IO path (DESIGN.md §10.5): edge-triggered epoll, one
// syscall per socket per operation. One EpollBackend per edge thread,
// owned by its Edge and called directly by NetServer's loop -
// epoll_wait gathers readiness, accept4 loops to EAGAIN, recv drains to
// EAGAIN through one kReadChunk buffer (appending only the bytes
// received), and NetServer::DirectFlush (sendmsg) pushes replies with
// EPOLLOUT continuation for partial writes.
//
// The split line: this class owns the readiness objects and moves
// bytes; NetServer owns sockets, framing, admission, batching, sessions
// and the drain, and this class dispatches into its AdmitConnection /
// ParseBuffered / CloseConnection paths.
#pragma once

#include <sys/epoll.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace osap::net {

class NetServer;
struct Edge;

class EpollBackend {
 public:
  EpollBackend(NetServer& server, Edge& edge)
      : server_(server), edge_(edge) {}
  ~EpollBackend();

  EpollBackend(const EpollBackend&) = delete;
  EpollBackend& operator=(const EpollBackend&) = delete;

  /// Creates the epoll instance and starts watching the edge's
  /// already-created listener and wake eventfd. Throws on failure.
  void Init();

  /// One gather-and-dispatch round: accepts, reads (parsed into pending
  /// steps through the server's paths), write continuations, wake
  /// drains. Waits for new IO only when `block`; otherwise collects
  /// whatever is already ready and returns.
  void Pump(bool block);

  /// A freshly admitted connection: start watching its fd. False means
  /// epoll_ctl refused it and the server undoes the admission.
  bool OnConnectionOpened(std::size_t slot);

  /// The connection is being torn down (fd still open): stop watching it.
  void OnConnectionClosing(std::size_t slot);

  /// Reads resume after TCP-pushback pause. The pause may have swallowed
  /// an edge - the kernel owes no further EPOLLIN for bytes that arrived
  /// while paused - so drain explicitly. The caller has already parsed
  /// what was buffered.
  void OnReadsResumed(std::size_t slot);

  /// Moves the slot's queued replies toward the socket without blocking
  /// and arms EPOLLOUT while a partial write is left over.
  void FlushWrites(std::size_t slot);

 private:
  /// accept4 until EAGAIN; each fd goes through the server's admission.
  void AcceptReady();
  /// Edge-triggered read: recv until EAGAIN (or pause), parsing as
  /// bytes land. False closes the connection (EOF / protocol error).
  bool DrainSocket(std::size_t slot);
  /// Re-arms the fd's interest set (EPOLLIN|EPOLLET [+EPOLLOUT]).
  void UpdateInterest(std::size_t slot);

  NetServer& server_;
  Edge& edge_;
  int epoll_fd_ = -1;
  std::vector<epoll_event> events_{256};
  /// Uninitialized kReadChunk-byte recv target shared by every connection.
  std::unique_ptr<std::uint8_t[]> chunk_;
};

}  // namespace osap::net
