// Wire protocol of the OSAP network edge (DESIGN.md §10).
//
// Length-prefixed little-endian binary frames over TCP. A frame is a
// 32-bit body length followed by the body; the first two body bytes are a
// protocol version and a message type, so the framing layer can reject
// unknown versions before touching type-specific fields. Four request
// types (OPEN_SESSION / STEP / CLOSE_SESSION / STATS) and one reply shape
// (status + defaulted flag + action + epoch, with an extended stats
// payload on STATS replies) cover the whole serving conversation:
//
//   request  := u32 body_len | u8 version | u8 type | u16 reserved
//               | u64 request_id | u64 session_id
//               | [STEP only] u32 state_dim | f64 state[state_dim]
//   reply    := u32 body_len | u8 version | u8 type | u8 status | u8 flags
//               | i32 action | u64 request_id | u64 session_id | u64 epoch
//               | [STATS + kOk only] ServerStats (9 x u64)
//                 | u64 reserved[4] (always 0)
//
// request_id is chosen by the client and echoed verbatim, so a pipelined
// client can match replies to in-flight requests without assuming FIFO
// completion. session_id is server-assigned by OPEN_SESSION (the reply's
// session_id field carries the new id) and names the session in every
// later STEP / CLOSE_SESSION.
//
// Encoding is explicitly little-endian byte by byte - the helpers below
// are correct on any host endianness and cost nothing on x86 (memcpy of
// the native representation compiles to the same stores). Doubles travel
// as their IEEE-754 bit pattern, so a decision computed from wire-decoded
// state bits is bit-identical to one computed in-process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace osap::net {

/// Protocol version carried in every frame. Bump on any layout change.
/// v2: ServerStats grew the `errors` counter (kError replies sent).
/// v3: ServerStats grew a four-word block for a since-removed online
///     threshold arm; the words are now reserved and always zero
///     (kServerStatsReservedWords, DESIGN.md §10.1).
inline constexpr std::uint8_t kProtocolVersion = 3;

/// Frames larger than this are a protocol violation (a STEP carries one
/// state vector, not a payload): the server closes the connection rather
/// than buffering unbounded garbage.
inline constexpr std::size_t kMaxFrameBody = 1 << 20;

enum class MsgType : std::uint8_t {
  kOpenSession = 1,
  kStep = 2,
  kCloseSession = 3,
  kStats = 4,
};

enum class Status : std::uint8_t {
  kOk = 0,
  /// Admission control: the request was read and understood but the
  /// server is at its in-flight cap. The request was NOT queued - retry
  /// later.
  kBusy = 1,
  /// OPEN_SESSION only: the session table is at max_sessions. No session
  /// was created.
  kFull = 2,
  /// Malformed or inapplicable request (unknown session, wrong state
  /// width, a NaN or infinite state value, unknown type). The connection
  /// stays up; the client should treat its own state as suspect.
  kError = 3,
};

/// Reply flag bits.
inline constexpr std::uint8_t kFlagDefaulted = 0x01;

struct RequestHeader {
  std::uint8_t version = kProtocolVersion;
  MsgType type = MsgType::kStep;
  std::uint64_t request_id = 0;
  std::uint64_t session_id = 0;
};

struct Reply {
  std::uint8_t version = kProtocolVersion;
  MsgType type = MsgType::kStep;
  Status status = Status::kOk;
  std::uint8_t flags = 0;
  std::int32_t action = 0;
  std::uint64_t request_id = 0;
  std::uint64_t session_id = 0;
  /// The service's decision-round counter when the reply was completed
  /// (the decision round that answered a STEP; the current round for the
  /// other types).
  std::uint64_t epoch = 0;

  bool Defaulted() const { return (flags & kFlagDefaulted) != 0; }
};

/// Extended payload of a successful STATS reply. On the wire it is
/// followed by kServerStatsReservedWords zero words (v3 layout).
struct ServerStats {
  std::uint64_t open_sessions = 0;
  std::uint64_t session_bytes = 0;  // ServiceMemoryStats::SessionBytes()
  std::uint64_t in_flight = 0;      // admitted STEPs awaiting a decision
  std::uint64_t decided = 0;        // STEP replies completed with kOk
  std::uint64_t busy = 0;           // kBusy replies sent (admission hits)
  std::uint64_t rejected_opens = 0; // kFull replies sent
  std::uint64_t epochs = 0;         // DecideBatch rounds run
  std::uint64_t connections = 0;    // currently accepted connections
  std::uint64_t errors = 0;         // kError replies sent
};

// --- byte-level helpers -------------------------------------------------

inline void PutU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void PutF64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  PutU64(out, bits);
}

inline std::uint16_t GetU16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
}

inline std::uint32_t GetU32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline std::uint64_t GetU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline double GetF64(const std::uint8_t* p) {
  const std::uint64_t bits = GetU64(p);
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

// --- frame sizes --------------------------------------------------------

/// Request body bytes before any STEP state payload.
inline constexpr std::size_t kRequestHeaderBytes = 1 + 1 + 2 + 8 + 8;
/// Fixed reply body size (STATS replies append ServerStats after this).
inline constexpr std::size_t kReplyBytes = 1 + 1 + 1 + 1 + 4 + 8 + 8 + 8;
/// STATS payload: ServerStats' nine counters plus the reserved words.
inline constexpr std::size_t kServerStatsBytes = 13 * 8;
inline constexpr std::size_t kServerStatsReservedWords = 4;
/// u32 length prefix.
inline constexpr std::size_t kLengthPrefixBytes = 4;

/// Wire bytes of a STEP request carrying `dim` state doubles.
inline constexpr std::size_t StepFrameBytes(std::size_t dim) {
  return kLengthPrefixBytes + kRequestHeaderBytes + 4 + 8 * dim;
}

// --- encoding -----------------------------------------------------------

/// Appends one request frame (length prefix included). `state` must be
/// empty unless header.type == kStep.
void AppendRequestFrame(std::vector<std::uint8_t>& out,
                        const RequestHeader& header,
                        std::span<const double> state = {});

/// Appends one reply frame. `stats` is encoded only when reply.type ==
/// kStats and reply.status == kOk (pass nullptr otherwise).
void AppendReplyFrame(std::vector<std::uint8_t>& out, const Reply& reply,
                      const ServerStats* stats = nullptr);

// --- decoding -----------------------------------------------------------

/// A decoded request body. For STEP, `state` points INTO the frame bytes
/// handed to DecodeRequest (unaligned little-endian f64s - read via
/// CopyState, do not reinterpret) and is valid only while they are.
struct DecodedRequest {
  RequestHeader header;
  std::uint32_t state_dim = 0;
  const std::uint8_t* state = nullptr;

  /// Decodes the STEP state payload into `out` (size must be state_dim)
  /// bit for bit. Returns false when any value is NaN or infinite: the
  /// wire carries every bit pattern, the decision path takes finite
  /// states only.
  bool CopyState(std::span<double> out) const;
};

enum class DecodeResult {
  kOk,
  /// Version / type / size mismatch: the framing is broken, close the
  /// connection (there is no way to resynchronize a byte stream).
  kMalformed,
};

/// Decodes one request body (the bytes AFTER the length prefix).
DecodeResult DecodeRequest(std::span<const std::uint8_t> body,
                           DecodedRequest& out);

/// Decodes one reply body. When the reply carries a stats payload and
/// `stats` is non-null it is filled; a missing payload leaves it zeroed.
DecodeResult DecodeReply(std::span<const std::uint8_t> body, Reply& out,
                         ServerStats* stats = nullptr);

}  // namespace osap::net
