#include "net/protocol.h"

#include <cmath>

#include "util/check.h"

namespace osap::net {

void AppendRequestFrame(std::vector<std::uint8_t>& out,
                        const RequestHeader& header,
                        std::span<const double> state) {
  OSAP_REQUIRE(header.type == MsgType::kStep || state.empty(),
               "AppendRequestFrame: only STEP carries state");
  const std::size_t body = kRequestHeaderBytes +
                           (header.type == MsgType::kStep
                                ? 4 + 8 * state.size()
                                : 0);
  OSAP_REQUIRE(body <= kMaxFrameBody, "AppendRequestFrame: frame too large");
  PutU32(out, static_cast<std::uint32_t>(body));
  out.push_back(header.version);
  out.push_back(static_cast<std::uint8_t>(header.type));
  PutU16(out, 0);  // reserved
  PutU64(out, header.request_id);
  PutU64(out, header.session_id);
  if (header.type == MsgType::kStep) {
    PutU32(out, static_cast<std::uint32_t>(state.size()));
    for (double v : state) PutF64(out, v);
  }
}

void AppendReplyFrame(std::vector<std::uint8_t>& out, const Reply& reply,
                      const ServerStats* stats) {
  const bool with_stats = stats != nullptr &&
                          reply.type == MsgType::kStats &&
                          reply.status == Status::kOk;
  const std::size_t body =
      kReplyBytes + (with_stats ? kServerStatsBytes : 0);
  PutU32(out, static_cast<std::uint32_t>(body));
  out.push_back(reply.version);
  out.push_back(static_cast<std::uint8_t>(reply.type));
  out.push_back(static_cast<std::uint8_t>(reply.status));
  out.push_back(reply.flags);
  PutU32(out, static_cast<std::uint32_t>(reply.action));
  PutU64(out, reply.request_id);
  PutU64(out, reply.session_id);
  PutU64(out, reply.epoch);
  if (with_stats) {
    PutU64(out, stats->open_sessions);
    PutU64(out, stats->session_bytes);
    PutU64(out, stats->in_flight);
    PutU64(out, stats->decided);
    PutU64(out, stats->busy);
    PutU64(out, stats->rejected_opens);
    PutU64(out, stats->epochs);
    PutU64(out, stats->connections);
    PutU64(out, stats->errors);
    for (std::size_t i = 0; i < kServerStatsReservedWords; ++i) {
      PutU64(out, 0);
    }
  }
}

bool DecodedRequest::CopyState(std::span<double> out) const {
  OSAP_REQUIRE(out.size() == state_dim,
               "DecodedRequest::CopyState: size mismatch");
  bool finite = true;
  for (std::size_t i = 0; i < state_dim; ++i) {
    out[i] = GetF64(state + 8 * i);
    finite &= std::isfinite(out[i]);
  }
  return finite;
}

DecodeResult DecodeRequest(std::span<const std::uint8_t> body,
                           DecodedRequest& out) {
  if (body.size() < kRequestHeaderBytes) return DecodeResult::kMalformed;
  const std::uint8_t* p = body.data();
  out.header.version = p[0];
  if (out.header.version != kProtocolVersion) return DecodeResult::kMalformed;
  const std::uint8_t type = p[1];
  if (type < static_cast<std::uint8_t>(MsgType::kOpenSession) ||
      type > static_cast<std::uint8_t>(MsgType::kStats)) {
    return DecodeResult::kMalformed;
  }
  out.header.type = static_cast<MsgType>(type);
  out.header.request_id = GetU64(p + 4);
  out.header.session_id = GetU64(p + 12);
  out.state_dim = 0;
  out.state = nullptr;
  if (out.header.type == MsgType::kStep) {
    if (body.size() < kRequestHeaderBytes + 4) return DecodeResult::kMalformed;
    out.state_dim = GetU32(p + kRequestHeaderBytes);
    if (body.size() != kRequestHeaderBytes + 4 + 8ul * out.state_dim) {
      return DecodeResult::kMalformed;
    }
    out.state = p + kRequestHeaderBytes + 4;
  } else if (body.size() != kRequestHeaderBytes) {
    return DecodeResult::kMalformed;
  }
  return DecodeResult::kOk;
}

DecodeResult DecodeReply(std::span<const std::uint8_t> body, Reply& out,
                         ServerStats* stats) {
  if (stats != nullptr) *stats = ServerStats{};
  if (body.size() < kReplyBytes) return DecodeResult::kMalformed;
  const std::uint8_t* p = body.data();
  out.version = p[0];
  if (out.version != kProtocolVersion) return DecodeResult::kMalformed;
  out.type = static_cast<MsgType>(p[1]);
  out.status = static_cast<Status>(p[2]);
  out.flags = p[3];
  out.action = static_cast<std::int32_t>(GetU32(p + 4));
  out.request_id = GetU64(p + 8);
  out.session_id = GetU64(p + 16);
  out.epoch = GetU64(p + 24);
  if (body.size() == kReplyBytes) return DecodeResult::kOk;
  if (body.size() != kReplyBytes + kServerStatsBytes) {
    return DecodeResult::kMalformed;
  }
  if (stats != nullptr) {
    const std::uint8_t* s = p + kReplyBytes;
    stats->open_sessions = GetU64(s);
    stats->session_bytes = GetU64(s + 8);
    stats->in_flight = GetU64(s + 16);
    stats->decided = GetU64(s + 24);
    stats->busy = GetU64(s + 32);
    stats->rejected_opens = GetU64(s + 40);
    stats->epochs = GetU64(s + 48);
    stats->connections = GetU64(s + 56);
    stats->errors = GetU64(s + 64);
  }
  return DecodeResult::kOk;
}

}  // namespace osap::net
