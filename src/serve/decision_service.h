// DecisionService: a sharded multi-session decision front-end.
//
// The service owns N concurrent ABR sessions and answers "next bitrate?"
// requests by micro-batching across sessions. The shard is its one unit:
// a shard owns its sessions, their ids, one tile of scratch, and the one
// thread that submits to it (a network edge, a bench loop, an oracle
// thread). One DecideBatch call answers one shard's requests, in caller
// order:
//   0. stamps each request's session and defers a session's repeat
//      requests; answers every kPermanent session that has already
//      defaulted from the Buffer-Based mapping (core::SafetyStepDefaulted
//      counts its step) - such a session's score can never change a
//      decision again, so it is never packed, scored or pushed through its
//      trigger; kRevocable sessions always take steps 1-4 (revocation
//      needs the quiet streak),
//   1. packs a tile of up to core::kRowTile remaining (live) sessions'
//      states into one contiguous matrix,
//   2. computes the tile's uncertainty scores with a single fused pass
//      over the SHARED model weights (EnsembleModel::ScorePacked for
//      U_pi / U_V; staged feature rows + one OneClassSvm::DecisionValues
//      scan for U_S),
//   3. advances each session's defaulting state machine on its score, and
//   4. emits actions: one batched deployed-actor pass for the tile's
//      non-defaulted sessions, the Buffer-Based mapping for the rest.
//
// One thread per shard: shards share no mutable state (the global round
// counter and active-session count are single atomics), so shard s's
// submitter can OpenSession(s) / DecideBatch / CloseSession while the
// other shards' submitters do the same, and no lane needs a lock. Each
// session answers in caller order within its shard, so batched
// decisions stay bit-identical to the sequential SafeAgent loop for all
// three signals in both defaulting modes (pinned by the differential
// oracle, tests/testing/defaulting_oracle.h). Cores come from shards,
// not from inside a round.
//
// Threshold: step 3 compares against the model's own trigger threshold
// (ServingModel::safety(); for U_pi / U_V the replay bisection's frozen
// alpha, DESIGN.md §11), the same one the sequential SafeAgent uses.
// Nothing on the decision path re-derives it.
//
// Session ids: shard s hands out its n-th fresh id as n * shard_count + s
// and recycles its own closed ids, most recently closed first, so a
// session's shard is id % shard_count for its whole life. One shard
// therefore hands out 0, 1, 2, ...
//
// The lane's slot pool is the ONE per-session table of a deployment: a
// caller that needs its own per-session bookkeeping (the network edge's
// owning connection and queued-STEP count) keeps it in the session's
// SubmitterTag (TagOf), so MemoryStats() counts every per-session byte.
// "One decision per session per round" likewise has one rule:
// DecideBatch's stamp, which defers a session's repeat requests.
//
// Per-session state is on a strict memory budget (ROADMAP: a million
// concurrent sessions must fit). Each lane keeps its sessions in one
// util::SlabPool indexed by the session's local slot (id / shard_count):
// a slot is one 64-byte SessionRecord (SafetyState, SafetyCold, round
// stamp, SubmitterTag, open flag) followed by a span of doubles - the
// variance trigger's score ring (U_pi / U_V), or the NoveltyFeatureState
// and the extractor's window/pair storage (U_S). Slabs of kSlabSlots
// slots are allocated when their first session opens and released when
// their last one closes, so capacity tracks the live population and an
// open/close reuses the slot its recycled id names. A STEP reads one
// record plus its span. MemoryStats() reports the exact breakdown.
//
// Every buffer a pass touches holds at most kRowTile rows: each shard
// owns one TileScratch, sized on its first round, so the steady state is
// allocation-free and a spike leaves nothing behind; only the deferred
// list follows a round's repeat requests. The throughput win over the
// one-session-at-a-time loop comes from weight de-duplication - N
// sequential sessions stream N private ~100 KB weight packs through the
// cache per round, the service streams ONE shared pack per tile, whose
// activations stay in cache.
//
// Thread-safety: the service starts no threads. Each SHARD is externally
// synchronized - do not call OpenSession / Close / DecideBatch for the
// same shard from multiple threads. Different shards may run
// concurrently. MemoryStats() walks every shard and requires ALL shards
// quiescent; MemoryStatsOfShard() needs only its own shard idle.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "core/novelty_detector.h"
#include "core/safety_core.h"
#include "mdp/types.h"
#include "nn/matrix.h"
#include "nn/sequential.h"
#include "serve/serving_model.h"
#include "util/slab_pool.h"

namespace osap::serve {

struct DecisionServiceConfig {
  /// Shards, each with its own sessions, ids, tile scratch and submitting
  /// thread; shard s may be driven via OpenSession(s) / DecideBatch
  /// concurrently with the other shards. Must be >= 1.
  std::size_t shard_count = 1;
};

/// Exact byte accounting of a service's per-session and scratch memory
/// (capacity bytes of the service's own containers; the shared
/// ServingModel is excluded - it is one object per process regardless of
/// session count).
struct ServiceMemoryStats {
  std::size_t open_sessions = 0;
  std::size_t session_slots = 0;  // ids minted, incl. free-listed
  std::size_t slab_slots = 0;     // slots in held slabs, open or not
  std::size_t record_bytes = 0;   // their SessionRecords
  std::size_t span_bytes = 0;     // their trigger rings / U_S extractors
  std::size_t registry_bytes = 0;  // free ids and slab tables
  std::size_t scratch_bytes = 0;   // lanes and their tile scratch
  std::size_t deferred_bytes = 0;  // deferred request index lists

  /// Bytes attributable to session state (everything but scratch).
  std::size_t SessionBytes() const {
    return record_bytes + span_bytes + registry_bytes;
  }
  std::size_t TotalBytes() const {
    return SessionBytes() + scratch_bytes + deferred_bytes;
  }
  /// Session bytes amortized over the open sessions (0 when none).
  double BytesPerSession() const {
    return open_sessions == 0 ? 0.0
                              : static_cast<double>(SessionBytes()) /
                                    static_cast<double>(open_sessions);
  }
};

class DecisionService {
 public:
  using SessionId = std::size_t;

  /// One session's pending decision request. The state must stay valid
  /// until DecideBatch returns.
  struct Request {
    SessionId session = 0;
    const mdp::State* state = nullptr;
  };

  /// Per-session word owned by the session's shard submitter. OpenSession
  /// zeroes it; the service itself never reads it. The network edge keeps
  /// the owning connection slot and the session's queued STEPs here.
  struct SubmitterTag {
    std::uint32_t owner = 0;
    std::uint32_t queued = 0;
  };

  DecisionService(std::shared_ptr<const ServingModel> model,
                  DecisionServiceConfig config = {});

  /// Registers a new session (fresh defaulting state / novelty window)
  /// on `shard` and returns its id. Ids of the shard's closed sessions
  /// are recycled (most recently closed first). Only `shard`'s submitter
  /// may call this, from its one submitting thread.
  SessionId OpenSession(std::size_t shard = 0);

  /// Tears a session down; its id becomes invalid until recycled. Only
  /// the owning shard's submitter may close it.
  void CloseSession(SessionId id);

  /// Answers one decision per session: out[i] answers requests[i] for a
  /// session's first request in the call. A session's second and later
  /// requests are deferred (its next state depends on the action this
  /// call picks): their out[] entries are left untouched and their
  /// indices are returned in ascending order, for the caller to submit
  /// again in a later call. The returned view lives in the shard's
  /// scratch and stays valid until the shard's next DecideBatch. The
  /// batch belongs to requests[0]'s shard, and every request's session
  /// must be open on that shard with a state of the model's input size;
  /// a request that is not throws std::invalid_argument, and the requests
  /// before it may or may not have been answered. Distinct shards may
  /// call this concurrently; within a shard, calls are externally
  /// synchronized.
  std::span<const std::size_t> DecideBatch(std::span<const Request> requests,
                                           std::span<mdp::Action> out);

  std::size_t ActiveSessionCount() const {
    return active_count_.load(std::memory_order_relaxed);
  }
  /// The shard lane `id` routes to (stable for a session's lifetime).
  std::size_t ShardOfSession(SessionId id) const { return ShardOf(id); }
  /// DecideBatch rounds completed so far - the epoch counter replies
  /// carry on the wire. The counter is global: every shard's round draws
  /// the next value.
  std::uint64_t RoundCount() const {
    return round_.load(std::memory_order_relaxed);
  }

  /// `id`'s submitter tag, or nullptr unless `id` is open on `shard`.
  /// Reads only `shard`'s lane, so shard s's submitter may call it while
  /// other shards run. The pointer is valid while the session stays open.
  SubmitterTag* TagOf(std::size_t shard, SessionId id);

  /// Per-session introspection (id must be open).
  bool Defaulted(SessionId id) const;
  std::size_t StepCount(SessionId id) const;

  /// Exact capacity-byte accounting of the service's own containers.
  /// Call only while EVERY shard is parked (walks all lanes).
  ServiceMemoryStats MemoryStats() const;

  /// The same accounting restricted to one shard (its share of the
  /// session slots and scratch). Safe while OTHER shards run - it reads
  /// nothing outside the shard's lane.
  ServiceMemoryStats MemoryStatsOfShard(std::size_t shard) const;

 private:
  /// One session's slot in its lane's pool; the pool places the session's
  /// span of doubles right after it: [trigger ring (ring_width_)]
  /// [NoveltyFeatureState + extractor storage (U_S only)].
  struct SessionRecord {
    core::SafetyState state;
    std::uint64_t last_round = 0;  // DecideBatch's per-round stamp
    SubmitterTag tag;
    core::SafetyCold cold;
    bool open = false;
  };
  static_assert(sizeof(SessionRecord) == 64);

  /// Slots per slab. A lane rounds its population up to whole slabs, so
  /// 16 keeps that slack under 2% from 750 sessions per lane up, while a
  /// slab's table entry costs one byte per slot.
  static constexpr std::size_t kSlabSlots = 16;

  /// The buffers of one tile's pass, core::kRowTile rows each (row j is
  /// the tile's j-th live request).
  struct TileScratch {
    std::array<std::size_t, core::kRowTile> live;  // request index of row j
    std::array<double, core::kRowTile> scores;
    /// U_pi: the scoring pass's actions by row; otherwise the actor
    /// pass's, by learned row.
    std::array<mdp::Action, core::kRowTile> actions;
    std::array<std::size_t, core::kRowTile> learned_of;  // row of learned row t
    std::array<std::size_t, core::kRowTile> staged_of;   // U_S: row of feature t
    std::array<double, core::kRowTile> values;           // U_S decision values
    nn::Matrix states;    // packed live states, then the learned ones
    nn::Matrix features;  // U_S staged feature rows
    ServingModel::Scratch model;
  };

  /// One shard's whole state: its session slots, its id allocator, its
  /// deferred list and its tile. Allocated separately per shard and
  /// cache-line aligned, so concurrent shards never share a line.
  struct alignas(64) ShardLane {
    explicit ShardLane(std::size_t span_doubles)
        : sessions(kSlabSlots, span_doubles) {}

    util::SlabPool<SessionRecord> sessions;
    /// Closed ids awaiting reuse, most recently closed last.
    std::vector<SessionId> free_ids;
    /// Fresh ids handed out so far; the n-th is n * shard_count + shard.
    std::size_t fresh = 0;
    /// The round's deferred request indices, ascending (DecideBatch's
    /// return value).
    std::vector<std::size_t> deferred;
    TileScratch tile;
  };

  /// Scores, observes and acts the `count` live requests of the lane's
  /// tile.
  void RunTile(ShardLane& lane, std::span<const Request> requests,
               std::span<mdp::Action> out, std::size_t count);
  std::size_t ShardOf(SessionId id) const { return id % shards_.size(); }
  std::size_t LocalOf(SessionId id) const { return id / shards_.size(); }
  /// `id`'s record if the session is open, else nullptr.
  SessionRecord* FindOpen(SessionId id) const {
    SessionRecord* session = shards_[ShardOf(id)]->sessions.Find(LocalOf(id));
    return session != nullptr && session->open ? session : nullptr;
  }
  const SessionRecord& CheckOpen(SessionId id) const;
  /// U_S: the NoveltyFeatureState at the head of a slot's extractor span.
  core::NoveltyFeatureState& NoveltyOf(std::span<double> span) const {
    return *std::launder(reinterpret_cast<core::NoveltyFeatureState*>(
        span.data() + ring_width_));
  }
  /// Accumulates lane `shard`'s containers into `stats`.
  void AccumulateLane(std::size_t shard, ServiceMemoryStats& stats) const;

  std::shared_ptr<const ServingModel> model_;
  std::vector<std::unique_ptr<ShardLane>> shards_;
  std::atomic<std::size_t> active_count_{0};
  std::size_t ring_width_ = 0;     // trigger-ring doubles per session
  std::size_t span_doubles_ = 0;   // ring + U_S extractor per session
  std::atomic<std::uint64_t> round_{0};
};

}  // namespace osap::serve
