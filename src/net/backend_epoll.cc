#include "net/backend_epoll.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "net/edge.h"
#include "net/server.h"

namespace osap::net {

namespace {

constexpr std::uint64_t kListenTag = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kWakeTag = kListenTag - 1;

[[noreturn]] void ThrowErrno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " +
                           std::strerror(errno));
}

}  // namespace

EpollBackend::~EpollBackend() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EpollBackend::Init() {
  chunk_ = std::make_unique_for_overwrite<std::uint8_t[]>(kReadChunk);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) ThrowErrno("EpollBackend: epoll_create1");
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered: accept until EAGAIN anyway
  ev.data.u64 = kListenTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, edge_.listen_fd, &ev) < 0) {
    ThrowErrno("EpollBackend: epoll_ctl(listen)");
  }
  ev.data.u64 = kWakeTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, edge_.wake_fd, &ev) < 0) {
    ThrowErrno("EpollBackend: epoll_ctl(wake)");
  }
}

void EpollBackend::Pump(bool block) {
  int n;
  for (;;) {
    n = ::epoll_wait(epoll_fd_, events_.data(),
                     static_cast<int>(events_.size()), block ? -1 : 0);
    edge_.io_syscalls.fetch_add(1, std::memory_order_relaxed);
    if (n >= 0) break;
    if (errno == EINTR) continue;
    ThrowErrno("EpollBackend: epoll_wait");
  }
  for (int i = 0; i < n; ++i) {
    const std::uint64_t tag = events_[i].data.u64;
    if (tag == kListenTag) {
      AcceptReady();
      continue;
    }
    if (tag == kWakeTag) {
      std::uint64_t drained = 0;
      [[maybe_unused]] const ssize_t r =
          ::read(edge_.wake_fd, &drained, sizeof drained);
      edge_.io_syscalls.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const auto slot = static_cast<std::size_t>(tag);
    Connection& conn = *edge_.connections[slot];
    // A peer closed earlier in this same event array: its slot is not
    // recycled until the end of the round, so stale events are
    // recognizable and ignored here.
    if (!conn.open) continue;
    if ((events_[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
      server_.CloseConnection(edge_, slot);
      continue;
    }
    if ((events_[i].events & EPOLLOUT) != 0) FlushWrites(slot);
    if (!conn.open) continue;
    if ((events_[i].events & EPOLLIN) != 0) {
      if (!DrainSocket(slot)) server_.CloseConnection(edge_, slot);
    }
  }
}

void EpollBackend::AcceptReady() {
  for (;;) {
    const int fd = ::accept4(edge_.listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    edge_.io_syscalls.fetch_add(1, std::memory_order_relaxed);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or transient accept failure: try next event
    }
    server_.AdmitConnection(edge_, fd);
  }
}

bool EpollBackend::DrainSocket(std::size_t slot) {
  Connection& conn = *edge_.connections[slot];
  // Edge-triggered: drain until EAGAIN, or stop early on pause (the
  // unread bytes close the TCP window - that IS the backpressure).
  // recv lands in the uninitialized chunk_ and only the bytes received
  // are appended: growing conn.in by kReadChunk instead would zero-fill
  // 64 KiB per call.
  while (!conn.paused) {
    const ssize_t r = ::recv(conn.fd, chunk_.get(), kReadChunk, 0);
    edge_.io_syscalls.fetch_add(1, std::memory_order_relaxed);
    if (r > 0) {
      conn.in.insert(conn.in.end(), chunk_.get(), chunk_.get() + r);
      if (!server_.ParseBuffered(edge_, slot)) return false;
      continue;
    }
    if (r == 0) return false;  // EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
  return true;
}

bool EpollBackend::OnConnectionOpened(std::size_t slot) {
  Connection& conn = *edge_.connections[slot];
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = slot;
  edge_.io_syscalls.fetch_add(1, std::memory_order_relaxed);
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev) == 0;
}

void EpollBackend::OnConnectionClosing(std::size_t slot) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, edge_.connections[slot]->fd,
              nullptr);
  edge_.io_syscalls.fetch_add(1, std::memory_order_relaxed);
}

void EpollBackend::OnReadsResumed(std::size_t slot) {
  if (!DrainSocket(slot)) server_.CloseConnection(edge_, slot);
}

void EpollBackend::FlushWrites(std::size_t slot) {
  Connection& conn = *edge_.connections[slot];
  server_.DirectFlush(edge_, slot);
  if (!conn.open) return;
  const bool want_write = conn.out_head < conn.out_q.size();
  if (want_write != conn.want_write) {
    conn.want_write = want_write;
    UpdateInterest(slot);
  }
}

void EpollBackend::UpdateInterest(std::size_t slot) {
  Connection& conn = *edge_.connections[slot];
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET | (conn.want_write ? EPOLLOUT : 0u);
  ev.data.u64 = slot;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  edge_.io_syscalls.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace osap::net
