// DecisionService: a sharded multi-session decision front-end.
//
// The service owns N concurrent ABR sessions and answers "next bitrate?"
// requests by micro-batching across sessions. Sessions are assigned to
// shards round-robin (slot % shard_count); one DecideBatch call routes
// each pending request to its shard, and each shard
//   0. answers every kPermanent session that has already defaulted from
//      the Buffer-Based mapping (core::SafetyStepDefaulted counts its
//      step) - such a session's score can never change a decision again,
//      so it is never packed, scored or pushed through its trigger;
//      kRevocable sessions always take steps 1-4 (revocation needs the
//      quiet streak),
//   1. packs its remaining (live) sessions' states into one contiguous
//      matrix,
//   2. computes every session's uncertainty score with a single fused
//      pass over the SHARED model weights (EnsembleModel::ScorePacked for
//      U_pi / U_V; staged feature rows + one OneClassSvm::DecisionValues
//      scan for U_S),
//   3. advances each session's defaulting state machine on its score, and
//   4. emits actions: one batched deployed-actor pass for the
//      non-defaulted sessions, the Buffer-Based mapping for the rest.
//
// Parallelism is persistent, not per-round: every shard that is not the
// first of its submitter group owns a dedicated worker thread for the
// service's whole lifetime, fed through a private SPSC ring of request
// indices plus a double-buffered input slot, and woken by an epoch ticket
// (a per-shard submitted/completed counter pair). Each round's FIRST
// NON-EMPTY shard runs on the submitting thread and only the non-empty
// shards after it get tickets, so a round touching one shard hands
// nothing off (the sparse rounds of a lightly loaded edge). Compared with
// fanning a thread pool out per round, this removes every piece of shared
// state from the round path - no global job object, no common mutex, no
// pool-wide barrier: posting shard k's ticket touches only shard k's
// lane, so a slow shard delays the final collection wait but never the
// staging or execution of its peers. A lane's scratch thus alternates
// between its worker and the submitter, each handover ordered by the
// lane mutex (ticket post / completion wait). The submitter collects
// completions in deterministic shard order before returning, and shards
// own disjoint sessions and disjoint out[] entries, so batched decisions
// stay bit-identical to the sequential SafeAgent loop for all three
// signals in both defaulting modes (pinned by equivalence tests).
//
// Threshold: step 3 compares against the model's own trigger threshold
// (ServingModel::safety(); for U_pi / U_V the replay bisection's frozen
// alpha, DESIGN.md §11), the same one the sequential SafeAgent uses.
// Nothing on the decision path re-derives it.
//
// Submitter groups (DecisionServiceConfig::submitter_count): the shard
// range is partitioned into submitter_count contiguous groups, and every
// session is opened, decided and closed through its group. Each group
// owns a separately allocated record - its shard range, its session-id
// allocator and its routing scratch - and every piece of per-session
// state (the SoA tables, open flags, duplicate-round stamps) lives inside
// its shard's lane, so group g's submitter can OpenSession(g) /
// DecideBatch / CloseSession on its own shards while the other groups'
// submitters do the same concurrently, with no shared mutable state
// between them (the global round counter and active-session count are
// single atomics). Each lane still has exactly ONE submitter, so the
// SPSC rings and epoch tickets need no extra locking. A group allocates
// ids LIFO from its own freed ids, else fresh: its n-th fresh id is
// (n / width) * shard_count + begin + n % width, spreading the group's
// sessions round-robin over its shards. The default single group
// [0, shard_count) therefore hands out 0, 1, 2, ... and recycles the
// most recently closed id first.
//
// Per-session state is on a strict memory budget (ROADMAP: a million
// concurrent sessions must fit). Each shard keeps its sessions in a
// struct-of-arrays table - dense core::SafetyState records (hot), their
// variance-trigger score rings packed into one contiguous array, and the
// cold introspection fields split out - instead of per-session heap
// objects, so the epoch scan walks cache lines, an open/close touches no
// allocator in steady state (slots recycle through a free list), and a
// session costs tens of bytes. U_S deployments add a per-shard
// util::SlabPool of NoveltyFeatureExtractors whose window/pair storage is
// carved from the slab; U_pi / U_V sessions hold no extractor index and
// pay zero extractor bytes. MemoryStats() reports the exact breakdown.
//
// Per-shard scratch (index/score arrays, packed matrices, a util::Arena)
// persists across calls, so the steady state is allocation-free; after a
// population spike, lanes shrink scratch back to the recent working set
// (every kLaneShrinkEpochs epochs). The throughput win over the
// one-session-at-a-time loop comes from weight de-duplication - N
// sequential sessions stream N private ~100 KB weight packs through the
// cache hierarchy per round, the service streams ONE shared pack per
// shard batch - plus shard parallelism on multi-core hosts.
//
// Thread-safety: the service synchronizes its own workers; each submitter
// GROUP is externally synchronized - do not call OpenSession / Close /
// DecideBatch for the same group from multiple threads. Different groups
// may run concurrently. Open/CloseSession between a group's DecideBatch
// calls is safe (its workers are parked); the epoch ticket's
// release/acquire edge publishes the membership change to the worker
// that owns the session's shard. MemoryStats() walks every group and
// requires ALL groups quiescent; MemoryStatsOfGroup() needs only its own
// group parked.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/novelty_detector.h"
#include "core/safety_core.h"
#include "mdp/types.h"
#include "nn/matrix.h"
#include "nn/sequential.h"
#include "serve/serving_model.h"
#include "util/arena.h"
#include "util/memory_meter.h"
#include "util/slab_pool.h"
#include "util/spsc_ring.h"

namespace osap::serve {

struct DecisionServiceConfig {
  /// Shards sessions are distributed over; each shard is one batched unit
  /// of work per DecideBatch call. Must be >= 1.
  std::size_t shard_count = 1;
  /// Spawn one persistent worker thread per shard that is not the first
  /// of its submitter group (a round's first non-empty shard runs on the
  /// submitting thread, so shard_count = submitter_count never spawns).
  /// false runs every shard of a group inline on its submitter - the
  /// serial reference arm for the equivalence tests, and the right
  /// choice when the host dedicates a single core to the service.
  bool shard_workers = true;
  /// Concurrent submitter groups (must be in [1, shard_count]). The
  /// shards are split into this many contiguous groups (GroupOfShard);
  /// group g may be driven by its own thread via OpenSession(g) /
  /// DecideBatch concurrently with the other groups. 1 = one submitter
  /// driving every shard.
  std::size_t submitter_count = 1;
  /// Sessions per slab in the per-shard extractor pool (U_S only).
  std::size_t extractor_slab_slots = 256;
  /// Hard per-lane SPSC-ring ceiling (util::SpscRing::SetBound); 0 keeps
  /// the rings unbounded (Reserve grows on demand). The network edge sets
  /// this to its admission high-water mark so an admission bug fails
  /// loudly ("shard ring overflow") instead of growing queues silently.
  /// Bounds the per-shard slice of a DecideBatch, not total sessions.
  std::size_t lane_capacity_bound = 0;
};

/// Exact byte accounting of a service's per-session and scratch memory
/// (capacity bytes of the service's own containers; the shared
/// ServingModel is excluded - it is one object per process regardless of
/// session count).
struct ServiceMemoryStats {
  std::size_t open_sessions = 0;
  std::size_t session_slots = 0;      // table rows incl. free-listed
  std::size_t session_hot_bytes = 0;  // SafetyState SoA arrays
  std::size_t session_cold_bytes = 0;
  std::size_t trigger_ring_bytes = 0;  // packed variance-trigger windows
  std::size_t extractor_bytes = 0;     // U_S slab pools (objects + storage)
  std::size_t registry_bytes = 0;  // slot registry: last-round/open/free
  std::size_t scratch_bytes = 0;   // shard lanes: arenas, matrices, rings

  /// Bytes attributable to session state (everything but shard scratch).
  std::size_t SessionBytes() const {
    return session_hot_bytes + session_cold_bytes + trigger_ring_bytes +
           extractor_bytes + registry_bytes;
  }
  std::size_t TotalBytes() const { return SessionBytes() + scratch_bytes; }
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

  DecisionService(std::shared_ptr<const ServingModel> model,
                  DecisionServiceConfig config = {});
  ~DecisionService();

  /// Registers a new session (fresh defaulting state / novelty window)
  /// on one of `group`'s shards and returns its id. Ids of the group's
  /// closed sessions are recycled (most recently closed first). Only
  /// `group`'s submitter may call this, from its one submitting thread.
  SessionId OpenSession(std::size_t group = 0);

  /// Tears a session down; its id becomes invalid until recycled. Only
  /// the owning group's submitter may close it.
  void CloseSession(SessionId id);

  /// Answers one decision per request. Each session may appear at most
  /// once per call (a session's next state depends on its previous
  /// action, so two requests for one session in one batch would be
  /// ill-defined). out[i] answers requests[i]. The batch belongs to the
  /// group of requests[0]'s shard; every request's session must live in
  /// that group. Distinct groups may call this concurrently; within a
  /// group, calls are externally synchronized.
  void DecideBatch(std::span<const Request> requests,
                   std::span<mdp::Action> out);

  /// Single-session convenience wrapper around DecideBatch.
  mdp::Action Decide(SessionId id, const mdp::State& state);

  const ServingModel& model() const { return *model_; }
  std::size_t ShardCount() const { return shards_.size(); }
  /// Worker threads currently parked on shard lanes (shard_count -
  /// submitter_count when shard_workers, else 0).
  std::size_t WorkerCount() const { return workers_.size(); }
  std::size_t ActiveSessionCount() const {
    return active_count_.load(std::memory_order_relaxed);
  }
  /// The shard lane `id` routes to (stable for a session's lifetime).
  std::size_t ShardOfSession(SessionId id) const { return ShardOf(id); }
  /// DecideBatch rounds completed so far - the epoch counter replies
  /// carry on the wire. With submitter groups the counter is global:
  /// every group's round draws the next value.
  std::uint64_t RoundCount() const {
    return round_.load(std::memory_order_relaxed);
  }

  // --- submitter groups --------------------------------------------------
  std::size_t SubmitterCount() const { return config_.submitter_count; }
  /// The group owning `shard` when `shard_count` shards are split into
  /// `groups` contiguous groups whose sizes differ by at most one, wider
  /// groups first. The one partition formula: the network edge and its
  /// clients use it to map a session id (id % shard_count) to its edge.
  static std::size_t GroupOfShard(std::size_t shard, std::size_t shard_count,
                                  std::size_t groups) {
    const std::size_t base = shard_count / groups;
    const std::size_t rem = shard_count % groups;
    const std::size_t wide = rem * (base + 1);  // shards in wider groups
    return shard < wide ? shard / (base + 1) : rem + (shard - wide) / base;
  }
  /// Shards [GroupBegin(g), GroupEnd(g)) belong to group g.
  std::size_t GroupBegin(std::size_t group) const {
    return groups_[group]->begin;
  }
  std::size_t GroupEnd(std::size_t group) const { return groups_[group]->end; }

  /// Per-session introspection (id must be open).
  bool Defaulted(SessionId id) const;
  std::size_t StepCount(SessionId id) const;
  double DefaultedFraction(SessionId id) const;

  /// Exact capacity-byte accounting of the service's own containers.
  /// Call only while EVERY submitter group is parked (walks all lanes).
  ServiceMemoryStats MemoryStats() const;

  /// The same accounting restricted to one group's shards (its share of
  /// the session tables, extractors, and scratch). Safe while OTHER
  /// groups run - it reads nothing outside the group's lanes.
  ServiceMemoryStats MemoryStatsOfGroup(std::size_t group) const;

  /// Adds the same accounting to `meter` under "session.hot",
  /// "session.cold", "session.rings", "session.extractors",
  /// "session.registry", and "shard.scratch".
  void MeasureMemory(util::MemoryMeter& meter) const;

 private:
  /// One epoch's input for a shard: the round's request/out spans plus
  /// how many indices the worker must drain from its ring.
  struct EpochSlot {
    std::span<const Request> requests;
    std::span<mdp::Action> out;
    std::size_t count = 0;
  };

  using ExtractorPool = util::SlabPool<core::NoveltyFeatureExtractor>;

  /// Struct-of-arrays session table for one shard, indexed by local slot
  /// (id / shard_count). The epoch scan touches hot[] and rings[] only;
  /// open[] / last_round[] are the validation registry (per shard so
  /// concurrent submitter groups never share registry storage), cold[]
  /// is introspection, extractor_of[] routes U_S sessions to their
  /// pooled extractor (empty table for the other signals).
  struct SessionTable {
    std::vector<core::SafetyState> hot;
    std::vector<core::SafetyCold> cold;
    std::vector<double> rings;  // local slots x ring_width, packed
    std::vector<ExtractorPool::Index> extractor_of;  // U_S only
    std::vector<std::uint8_t> open;
    std::vector<std::uint64_t> last_round;  // duplicate-request stamps
  };

  /// Per-shard lane: the shard's session table and extractor pool plus
  /// scratch that persists across DecideBatch calls plus (for shards
  /// that are not the first of their group, under shard_workers) the
  /// handoff state its worker drains. unique_ptr in shards_
  /// because the arena and the synchronization members are pinned in
  /// place (non-movable).
  struct ShardLane {
    ShardLane(std::size_t slab_slots, std::size_t scratch_doubles)
        : extractors(slab_slots, scratch_doubles) {}

    // --- session state owned by this shard ---
    std::size_t group = 0;  // the submitter group owning this shard
    SessionTable sessions;
    ExtractorPool extractors;  // U_S per-session extractors

    // --- scratch owned by whichever thread runs the shard ---
    util::Arena arena;        // per-epoch index/score arrays
    nn::Matrix states;        // packed request states
    nn::Matrix features;      // U_S staged feature rows
    nn::Matrix learned_states;
    std::vector<mdp::Action> learned_actions;
    std::size_t peak_count = 0;       // requests/epoch since last shrink
    std::size_t peak_arena_used = 0;  // arena bytes since last shrink
    std::size_t epochs_since_shrink = 0;

    // --- submitter -> worker handoff (workers only) ---
    util::SpscRing<std::uint32_t> ring;  // request indices for the epoch
    EpochSlot slots[2];                  // double-buffered, epoch & 1
    std::mutex mutex;
    std::condition_variable work_cv;  // worker parks here for its ticket
    std::condition_variable done_cv;  // submitter waits for completion
    std::uint64_t submitted = 0;      // epochs posted to this lane
    std::uint64_t completed = 0;      // epochs the worker has finished
    bool stop = false;
  };

  /// One submitter group's own state: its shard range, its session-id
  /// allocator and its routing scratch. Allocated separately per group
  /// (like the lanes) and cache-line aligned, so concurrent groups never
  /// share a line.
  struct alignas(64) SubmitterGroup {
    std::size_t begin = 0;  // shards [begin, end)
    std::size_t end = 0;
    /// Closed ids awaiting reuse, most recently closed last.
    std::vector<SessionId> free_ids;
    /// Fresh ids handed out so far; the n-th is
    /// (n / width) * shard_count + begin + n % width.
    std::size_t fresh = 0;
    /// counts[s - begin]: shard s's request count in the current round.
    std::vector<std::size_t> counts;
  };

  /// Epochs between a lane's scratch-shrink checks (MaybeShrinkLane).
  static constexpr std::size_t kLaneShrinkEpochs = 64;

  void WorkerLoop(std::size_t shard);
  /// Pops `slot.count` request indices off the shard's ring into arena
  /// storage and runs the shard on them. Runs on the shard's worker, or
  /// on the submitter for the round's first non-empty shard / serial mode.
  void DrainEpoch(std::size_t shard, const EpochSlot& slot);
  /// Scores and answers one shard's slice of the round. `idx` lists the
  /// shard's request indices in caller order.
  void RunShard(std::size_t shard, std::span<const Request> requests,
                std::span<mdp::Action> out, std::span<const std::size_t> idx);
  /// Periodic scratch diet: tracks the lane's high-water use and, every
  /// kLaneShrinkEpochs epochs, releases arena blocks / packed matrices
  /// beyond 2x the recent need. Runs at the end of DrainEpoch, on
  /// whichever thread ran the epoch.
  void MaybeShrinkLane(ShardLane& lane, std::size_t count);
  std::size_t GroupOf(SessionId id) const {
    return shards_[ShardOf(id)]->group;
  }
  std::size_t ShardOf(SessionId id) const { return id % shards_.size(); }
  std::size_t LocalOf(SessionId id) const { return id / shards_.size(); }
  bool IsOpen(SessionId id) const {
    const SessionTable& table = shards_[ShardOf(id)]->sessions;
    const std::size_t local = LocalOf(id);
    return local < table.open.size() && table.open[local] != 0;
  }
  void CheckOpen(SessionId id) const;
  /// Accumulates lane `shard`'s containers into `stats`.
  void AccumulateLane(std::size_t shard, ServiceMemoryStats& stats) const;
  /// Accumulates group `group`'s lanes and allocator into `stats`.
  void AccumulateGroup(std::size_t group, ServiceMemoryStats& stats) const;

  std::shared_ptr<const ServingModel> model_;
  DecisionServiceConfig config_;
  std::vector<std::unique_ptr<ShardLane>> shards_;
  std::vector<std::thread> workers_;
  std::vector<std::size_t> worker_shards_;  // shard drained by workers_[i]

  std::vector<std::unique_ptr<SubmitterGroup>> groups_;
  std::atomic<std::size_t> active_count_{0};
  std::size_t ring_width_ = 0;        // trigger-ring doubles per session
  std::size_t extractor_doubles_ = 0;  // slab scratch per U_S session
  std::atomic<std::uint64_t> round_{0};
};

}  // namespace osap::serve
