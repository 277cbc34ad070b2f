// The reference arm: edge-triggered epoll, one syscall per socket per
// operation. This is the original NetServer event loop moved behind
// net::Backend - epoll_wait gathers readiness, accept4 loops to EAGAIN,
// recv drains to EAGAIN through one backend-owned kReadChunk buffer
// (appending only the bytes received), DirectFlush (sendmsg) pushes
// replies with EPOLLOUT continuation for partial writes. The uring arm is
// measured against this one; the loopback bit-identity pins run both.
#pragma once

#include <sys/epoll.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/backend.h"

namespace osap::net {

class EpollBackend final : public Backend {
 public:
  EpollBackend(NetServer& server, Edge& edge)
      : server_(server), edge_(edge) {}
  ~EpollBackend() override;

  BackendKind Kind() const override { return BackendKind::kEpoll; }
  void Init() override;
  void Pump(bool block) override;
  bool OnConnectionOpened(std::size_t slot) override;
  void OnConnectionClosing(std::size_t slot) override;
  void OnReadsResumed(std::size_t slot) override;
  void FlushWrites(std::size_t slot) override;
  void PrepareDrain() override {}  // nothing in flight to cancel

 private:
  /// accept4 until EAGAIN; each fd goes through the shared admission.
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
