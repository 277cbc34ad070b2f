// Wire-protocol tests: encode/decode round trips, the pinned byte layout
// (these bytes ARE the protocol - any change must bump kProtocolVersion),
// and malformed-frame rejection.
#include "net/protocol.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace osap::net {
namespace {

std::vector<std::uint8_t> Body(const std::vector<std::uint8_t>& frame) {
  // Strip the u32 length prefix and check it against the body.
  EXPECT_GE(frame.size(), kLengthPrefixBytes);
  const std::uint32_t len = GetU32(frame.data());
  EXPECT_EQ(frame.size(), kLengthPrefixBytes + len);
  return {frame.begin() + kLengthPrefixBytes, frame.end()};
}

TEST(Protocol, ByteHelpersAreLittleEndian) {
  std::vector<std::uint8_t> out;
  PutU16(out, 0x1234);
  PutU32(out, 0xAABBCCDDu);
  PutU64(out, 0x0102030405060708ull);
  const std::vector<std::uint8_t> expected = {
      0x34, 0x12,                                      // u16
      0xDD, 0xCC, 0xBB, 0xAA,                          // u32
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // u64
  };
  EXPECT_EQ(out, expected);
  EXPECT_EQ(GetU16(out.data()), 0x1234);
  EXPECT_EQ(GetU32(out.data() + 2), 0xAABBCCDDu);
  EXPECT_EQ(GetU64(out.data() + 6), 0x0102030405060708ull);
}

TEST(Protocol, F64TravelsAsExactBitPattern) {
  // Bit-identity is an acceptance criterion: the wire must carry the
  // exact IEEE-754 bits, including values a text format would mangle.
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  for (double v : values) {
    std::vector<std::uint8_t> out;
    PutF64(out, v);
    ASSERT_EQ(out.size(), 8u);
    const double back = GetF64(out.data());
    std::uint64_t vb = 0, bb = 0;
    std::memcpy(&vb, &v, 8);
    std::memcpy(&bb, &back, 8);
    EXPECT_EQ(vb, bb);
  }
}

TEST(Protocol, RequestRoundTripAllTypes) {
  for (MsgType type : {MsgType::kOpenSession, MsgType::kCloseSession,
                       MsgType::kStats}) {
    RequestHeader header;
    header.type = type;
    header.request_id = 0xDEADBEEFCAFEull;
    header.session_id = 42;
    std::vector<std::uint8_t> frame;
    AppendRequestFrame(frame, header);
    const auto body = Body(frame);
    EXPECT_EQ(body.size(), kRequestHeaderBytes);
    DecodedRequest decoded;
    ASSERT_EQ(DecodeRequest(body, decoded), DecodeResult::kOk);
    EXPECT_EQ(decoded.header.version, kProtocolVersion);
    EXPECT_EQ(decoded.header.type, type);
    EXPECT_EQ(decoded.header.request_id, header.request_id);
    EXPECT_EQ(decoded.header.session_id, header.session_id);
    EXPECT_EQ(decoded.state_dim, 0u);
  }
}

TEST(Protocol, StepRequestRoundTripCarriesState) {
  const std::vector<double> state = {1.5, -2.25, 0.0, 1e-300, 3e17};
  RequestHeader header;
  header.type = MsgType::kStep;
  header.request_id = 7;
  header.session_id = 9;
  std::vector<std::uint8_t> frame;
  AppendRequestFrame(frame, header, state);
  EXPECT_EQ(frame.size(), StepFrameBytes(state.size()));
  const auto body = Body(frame);
  DecodedRequest decoded;
  ASSERT_EQ(DecodeRequest(body, decoded), DecodeResult::kOk);
  ASSERT_EQ(decoded.state_dim, state.size());
  std::vector<double> back(state.size());
  decoded.CopyState(back);
  EXPECT_EQ(back, state);
}

TEST(Protocol, ReplyRoundTrip) {
  Reply reply;
  reply.type = MsgType::kStep;
  reply.status = Status::kOk;
  reply.flags = kFlagDefaulted;
  reply.action = -3;
  reply.request_id = 1234567890123ull;
  reply.session_id = 17;
  reply.epoch = 99;
  std::vector<std::uint8_t> frame;
  AppendReplyFrame(frame, reply);
  const auto body = Body(frame);
  EXPECT_EQ(body.size(), kReplyBytes);
  Reply back;
  ASSERT_EQ(DecodeReply(body, back), DecodeResult::kOk);
  EXPECT_EQ(back.status, Status::kOk);
  EXPECT_TRUE(back.Defaulted());
  EXPECT_EQ(back.action, -3);
  EXPECT_EQ(back.request_id, reply.request_id);
  EXPECT_EQ(back.session_id, 17u);
  EXPECT_EQ(back.epoch, 99u);
}

TEST(Protocol, StatsReplyRoundTripCarriesPayload) {
  Reply reply;
  reply.type = MsgType::kStats;
  reply.status = Status::kOk;
  ServerStats stats;
  stats.open_sessions = 1;
  stats.session_bytes = 2;
  stats.in_flight = 3;
  stats.decided = 4;
  stats.busy = 5;
  stats.rejected_opens = 6;
  stats.epochs = 7;
  stats.connections = 8;
  stats.errors = 9;
  std::vector<std::uint8_t> frame;
  AppendReplyFrame(frame, reply, &stats);
  const auto body = Body(frame);
  // The v3 payload: nine counters then the reserved block, 104 bytes.
  EXPECT_EQ(kServerStatsBytes, 104u);
  EXPECT_EQ(body.size(), kReplyBytes + kServerStatsBytes);
  const std::uint8_t* payload = body.data() + kReplyBytes;
  for (std::size_t w = 0; w < 9; ++w) {
    EXPECT_EQ(GetU64(payload + 8 * w), w + 1) << "counter word " << w;
  }
  for (std::size_t w = 9; w < 9 + kServerStatsReservedWords; ++w) {
    EXPECT_EQ(GetU64(payload + 8 * w), 0u) << "reserved word " << w;
  }
  EXPECT_EQ(8 * (9 + kServerStatsReservedWords), kServerStatsBytes);
  Reply back;
  ServerStats back_stats;
  ASSERT_EQ(DecodeReply(body, back, &back_stats), DecodeResult::kOk);
  EXPECT_EQ(back_stats.open_sessions, 1u);
  EXPECT_EQ(back_stats.session_bytes, 2u);
  EXPECT_EQ(back_stats.in_flight, 3u);
  EXPECT_EQ(back_stats.decided, 4u);
  EXPECT_EQ(back_stats.busy, 5u);
  EXPECT_EQ(back_stats.rejected_opens, 6u);
  EXPECT_EQ(back_stats.epochs, 7u);
  EXPECT_EQ(back_stats.connections, 8u);
  EXPECT_EQ(back_stats.errors, 9u);
}

// The exact bytes of a STEP request are pinned here so an accidental
// layout change (field reorder, width change, endianness regression)
// fails loudly instead of silently breaking cross-version peers.
TEST(Protocol, StepFrameLayoutIsPinned) {
  RequestHeader header;
  header.type = MsgType::kStep;
  header.request_id = 0x1122334455667788ull;
  header.session_id = 0x0A0B0C0D0E0F1011ull;
  const std::vector<double> state = {1.0};
  std::vector<std::uint8_t> frame;
  AppendRequestFrame(frame, header, state);
  const std::vector<std::uint8_t> expected = {
      // u32 body length = 20 header + 4 dim + 8 state = 32
      32, 0, 0, 0,
      // version, type (kStep = 2), reserved u16
      kProtocolVersion, 2, 0, 0,
      // request_id LE
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
      // session_id LE
      0x11, 0x10, 0x0F, 0x0E, 0x0D, 0x0C, 0x0B, 0x0A,
      // state_dim = 1
      1, 0, 0, 0,
      // 1.0 as IEEE-754 LE: 0x3FF0000000000000
      0, 0, 0, 0, 0, 0, 0xF0, 0x3F,
  };
  EXPECT_EQ(frame, expected);
}

TEST(Protocol, RejectsWrongVersion) {
  RequestHeader header;
  header.type = MsgType::kOpenSession;
  std::vector<std::uint8_t> frame;
  AppendRequestFrame(frame, header);
  auto body = Body(frame);
  body[0] = kProtocolVersion + 1;
  DecodedRequest decoded;
  EXPECT_EQ(DecodeRequest(body, decoded), DecodeResult::kMalformed);
}

TEST(Protocol, RejectsUnknownType) {
  RequestHeader header;
  header.type = MsgType::kOpenSession;
  std::vector<std::uint8_t> frame;
  AppendRequestFrame(frame, header);
  auto body = Body(frame);
  body[1] = 0;  // no such type
  DecodedRequest decoded;
  EXPECT_EQ(DecodeRequest(body, decoded), DecodeResult::kMalformed);
  body[1] = 200;
  EXPECT_EQ(DecodeRequest(body, decoded), DecodeResult::kMalformed);
}

TEST(Protocol, RejectsTruncatedAndOversizedBodies) {
  DecodedRequest decoded;
  // Too short for even a header.
  std::vector<std::uint8_t> tiny(kRequestHeaderBytes - 1, 0);
  EXPECT_EQ(DecodeRequest(tiny, decoded), DecodeResult::kMalformed);

  // A STEP whose declared state_dim disagrees with the body size.
  RequestHeader header;
  header.type = MsgType::kStep;
  const std::vector<double> two = {1.0, 2.0};
  std::vector<std::uint8_t> frame;
  AppendRequestFrame(frame, header, two);
  auto body = Body(frame);
  body[kRequestHeaderBytes] = 3;  // claims 3 doubles, carries 2
  EXPECT_EQ(DecodeRequest(body, decoded), DecodeResult::kMalformed);

  // A non-STEP request with trailing bytes.
  header.type = MsgType::kOpenSession;
  frame.clear();
  AppendRequestFrame(frame, header);
  auto open_body = Body(frame);
  open_body.push_back(0);
  EXPECT_EQ(DecodeRequest(open_body, decoded), DecodeResult::kMalformed);
}

TEST(Protocol, RejectsMalformedReplies) {
  Reply reply;
  std::vector<std::uint8_t> frame;
  AppendReplyFrame(frame, reply);
  auto body = Body(frame);
  Reply back;
  // Truncated.
  std::vector<std::uint8_t> cut(body.begin(), body.end() - 1);
  EXPECT_EQ(DecodeReply(cut, back), DecodeResult::kMalformed);
  // Wrong version.
  body[0] = kProtocolVersion + 3;
  EXPECT_EQ(DecodeReply(body, back), DecodeResult::kMalformed);
  // Reply with a partial stats payload (neither bare nor full).
  body[0] = kProtocolVersion;
  body.resize(kReplyBytes + kServerStatsBytes / 2, 0);
  EXPECT_EQ(DecodeReply(body, back), DecodeResult::kMalformed);
}

}  // namespace
}  // namespace osap::net
