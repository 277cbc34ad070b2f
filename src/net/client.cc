#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace osap::net {

namespace {

[[noreturn]] void ThrowErrno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " +
                           std::strerror(errno));
}

}  // namespace

Client::~Client() { Close(); }

void Client::Connect(const std::string& host, std::uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) ThrowErrno("Client: socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    throw std::runtime_error("Client: bad address " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const int saved = errno;
    Close();
    errno = saved;
    ThrowErrno("Client: connect");
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  out_.clear();
  in_.clear();
  in_off_ = 0;
}

void Client::SendOpen(std::uint64_t request_id) {
  RequestHeader header;
  header.type = MsgType::kOpenSession;
  header.request_id = request_id;
  AppendRequestFrame(out_, header);
}

void Client::SendStep(std::uint64_t request_id, std::uint64_t session,
                      std::span<const double> state) {
  RequestHeader header;
  header.type = MsgType::kStep;
  header.request_id = request_id;
  header.session_id = session;
  AppendRequestFrame(out_, header, state);
}

void Client::SendClose(std::uint64_t request_id, std::uint64_t session) {
  RequestHeader header;
  header.type = MsgType::kCloseSession;
  header.request_id = request_id;
  header.session_id = session;
  AppendRequestFrame(out_, header);
}

void Client::SendStats(std::uint64_t request_id) {
  RequestHeader header;
  header.type = MsgType::kStats;
  header.request_id = request_id;
  AppendRequestFrame(out_, header);
}

void Client::Flush() {
  std::size_t off = 0;
  while (off < out_.size()) {
    const ssize_t wrote =
        ::send(fd_, out_.data() + off, out_.size() - off, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      ThrowErrno("Client: send");
    }
    off += static_cast<std::size_t>(wrote);
  }
  out_.clear();
}

bool Client::ReadReply(Reply& reply, ServerStats* stats) {
  for (;;) {
    const std::size_t avail = in_.size() - in_off_;
    if (avail >= kLengthPrefixBytes) {
      const std::uint32_t body = GetU32(in_.data() + in_off_);
      if (body > kMaxFrameBody) {
        throw std::runtime_error("Client: oversized reply frame");
      }
      if (avail >= kLengthPrefixBytes + body) {
        if (DecodeReply({in_.data() + in_off_ + kLengthPrefixBytes, body},
                        reply, stats) != DecodeResult::kOk) {
          throw std::runtime_error("Client: malformed reply");
        }
        in_off_ += kLengthPrefixBytes + body;
        if (in_off_ == in_.size()) {
          in_.clear();
          in_off_ = 0;
        }
        return true;
      }
    }
    if (in_off_ > 0 && in_off_ == in_.size()) {
      in_.clear();
      in_off_ = 0;
    }
    // Append only what arrived: resizing in_ by a chunk per recv would
    // zero-fill it first.
    std::uint8_t chunk[16 * 1024];
    const ssize_t r = ::recv(fd_, chunk, sizeof chunk, 0);
    if (r > 0) {
      in_.insert(in_.end(), chunk, chunk + r);
      continue;
    }
    if (r == 0) {
      if (in_off_ != in_.size()) {
        throw std::runtime_error("Client: EOF mid-frame");
      }
      return false;
    }
    if (errno == EINTR) continue;
    ThrowErrno("Client: recv");
  }
}

Reply Client::RoundTrip(std::uint64_t request_id, ServerStats* stats) {
  Flush();
  Reply reply;
  if (!ReadReply(reply, stats)) {
    throw std::runtime_error("Client: connection closed by server");
  }
  if (reply.request_id != request_id) {
    throw std::runtime_error("Client: reply/request id mismatch");
  }
  return reply;
}

std::uint64_t Client::OpenSession() {
  const std::uint64_t id = next_request_id_++;
  SendOpen(id);
  const Reply reply = RoundTrip(id);
  if (reply.status != Status::kOk) {
    throw std::runtime_error("Client: OPEN_SESSION rejected (status " +
                             std::to_string(static_cast<int>(reply.status)) +
                             ")");
  }
  return reply.session_id;
}

Reply Client::Step(std::uint64_t session, std::span<const double> state) {
  const std::uint64_t id = next_request_id_++;
  SendStep(id, session, state);
  return RoundTrip(id);
}

void Client::CloseSession(std::uint64_t session) {
  const std::uint64_t id = next_request_id_++;
  SendClose(id, session);
  const Reply reply = RoundTrip(id);
  if (reply.status != Status::kOk) {
    throw std::runtime_error("Client: CLOSE_SESSION rejected");
  }
}

ServerStats Client::Stats() {
  const std::uint64_t id = next_request_id_++;
  SendStats(id);
  ServerStats stats;
  const Reply reply = RoundTrip(id, &stats);
  if (reply.status != Status::kOk) {
    throw std::runtime_error("Client: STATS rejected");
  }
  return stats;
}

}  // namespace osap::net
