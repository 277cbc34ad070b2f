#include "serve/decision_service.h"

#include <algorithm>
#include <new>
#include <type_traits>
#include <utility>

#include "util/check.h"

namespace osap::serve {

namespace {

// U_S spans hold the extractor's NoveltyFeatureState as whole doubles.
static_assert(sizeof(core::NoveltyFeatureState) % sizeof(double) == 0 &&
              alignof(core::NoveltyFeatureState) <= alignof(double) &&
              std::is_trivially_copyable_v<core::NoveltyFeatureState>);
constexpr std::size_t kNoveltyStateDoubles =
    sizeof(core::NoveltyFeatureState) / sizeof(double);

}  // namespace

DecisionService::DecisionService(std::shared_ptr<const ServingModel> model,
                                 DecisionServiceConfig config)
    : model_(std::move(model)) {
  OSAP_REQUIRE(model_ != nullptr, "DecisionService: null model");
  OSAP_REQUIRE(config.shard_count >= 1,
               "DecisionService: shard_count must be >= 1");
  core::ValidateSafeAgentConfig(model_->safety());
  ring_width_ = core::SafetyRingDoubles(model_->safety());
  span_doubles_ = ring_width_;
  if (model_->signal() == Signal::kNovelty) {
    span_doubles_ += kNoveltyStateDoubles +
                     core::NoveltyFeatureExtractor::StorageDoubles(
                         model_->NoveltyConfig());
  }
  shards_.reserve(config.shard_count);
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    shards_.push_back(std::make_unique<ShardLane>(span_doubles_));
  }
}

DecisionService::SessionId DecisionService::OpenSession(std::size_t shard) {
  OSAP_REQUIRE(shard < shards_.size(), "OpenSession: bad shard");
  ShardLane& lane = *shards_[shard];
  SessionId id;
  if (!lane.free_ids.empty()) {
    id = lane.free_ids.back();
    lane.free_ids.pop_back();
  } else {
    id = lane.fresh++ * shards_.size() + shard;
  }
  const std::size_t local = LocalOf(id);
  // Fresh state either way: a recycled slot keeps its previous occupant
  // while its slab stays held. The trigger ring and the extractor storage
  // need no wipe - neither window reads slots past its size.
  SessionRecord& session = lane.sessions.Claim(local);
  session = SessionRecord{};
  session.open = true;
  if (model_->signal() == Signal::kNovelty) {
    new (&NoveltyOf(lane.sessions.Scratch(local))) core::NoveltyFeatureState{};
  }
  active_count_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void DecisionService::CloseSession(SessionId id) {
  SessionRecord* session = FindOpen(id);
  OSAP_REQUIRE(session != nullptr, "CloseSession: unknown session");
  session->open = false;
  // The slab goes back to the allocator with its last open session.
  ShardLane& lane = *shards_[ShardOf(id)];
  lane.sessions.Vacate(LocalOf(id));
  lane.free_ids.push_back(id);
  active_count_.fetch_sub(1, std::memory_order_relaxed);
}

DecisionService::SubmitterTag* DecisionService::TagOf(std::size_t shard,
                                                      SessionId id) {
  if (ShardOf(id) != shard) return nullptr;
  SessionRecord* session = FindOpen(id);
  return session == nullptr ? nullptr : &session->tag;
}

const DecisionService::SessionRecord& DecisionService::CheckOpen(
    SessionId id) const {
  const SessionRecord* session = FindOpen(id);
  OSAP_REQUIRE(session != nullptr, "DecisionService: unknown session");
  return *session;
}

bool DecisionService::Defaulted(SessionId id) const {
  return CheckOpen(id).state.defaulted;
}

std::size_t DecisionService::StepCount(SessionId id) const {
  return CheckOpen(id).state.steps;
}

std::span<const std::size_t> DecisionService::DecideBatch(
    std::span<const Request> requests, std::span<mdp::Action> out) {
  OSAP_REQUIRE(out.size() >= requests.size(),
               "DecideBatch: output span too short");
  if (requests.empty()) return {};
  const std::size_t shard = ShardOf(requests[0].session);
  ShardLane& lane = *shards_[shard];
  TileScratch& tile = lane.tile;
  if (tile.states.values().empty()) {
    // First round: one full tile of zero states through the round's passes
    // sizes the scratch for good, off the start-up path.
    const nn::Matrix zeros(core::kRowTile, model_->InputSize());
    tile.states = zeros;
    if (model_->signal() == Signal::kNovelty) {
      tile.features.ReshapeUninitialized(core::kRowTile,
                                         2 * model_->NoveltyConfig().k);
    } else {
      model_->UncertaintyScores(zeros, tile.scores, {}, tile.model);
    }
    model_->GreedyActions(zeros, tile.actions, tile.model);
  }
  // Rounds draw from one global counter so reply epochs stay unique
  // across shards; each session's stamp lives in its record, which only
  // this shard touches. In caller order: a request whose session is
  // already stamped this round is deferred; a kPermanent session that has
  // defaulted is answered from the fallback mapping right here
  // (SafetyStepDefaulted counts its step) and costs no tile row; the rest
  // (kRevocable sessions always) fill the tile, which runs whenever full.
  const std::uint64_t round =
      round_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::size_t input = model_->InputSize();
  const core::SafeAgentConfig& safety = model_->safety();
  lane.deferred.clear();
  std::size_t count = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    OSAP_REQUIRE(ShardOf(r.session) == shard,
                 "DecideBatch: sessions of more than one shard");
    SessionRecord* session = FindOpen(r.session);
    OSAP_REQUIRE(session != nullptr, "DecideBatch: unknown session");
    OSAP_REQUIRE(r.state != nullptr && r.state->size() == input,
                 "DecideBatch: null or mis-sized state");
    if (session->last_round == round) {
      lane.deferred.push_back(i);
      continue;
    }
    session->last_round = round;
    if (core::SafetyStepDefaulted(safety, session->state)) {
      out[i] = model_->FallbackAction(*r.state);
      continue;
    }
    tile.live[count++] = i;
    if (count == core::kRowTile) {
      RunTile(lane, requests, out, count);
      count = 0;
    }
  }
  if (count > 0) RunTile(lane, requests, out, count);
  return lane.deferred;
}

void DecisionService::RunTile(ShardLane& lane,
                              std::span<const Request> requests,
                              std::span<mdp::Action> out, std::size_t count) {
  TileScratch& tile = lane.tile;
  const core::SafeAgentConfig& safety = model_->safety();
  const std::size_t input = model_->InputSize();
  const std::span<const std::size_t> live(tile.live.data(), count);
  const std::span<double> scores(tile.scores.data(), count);
  // U_pi only: per-request deployed-actor actions emitted by the scoring
  // pass itself (empty for the other signals).
  std::span<mdp::Action> scored_actions;

  if (model_->signal() == Signal::kNovelty) {
    // U_S: stream each session's observation through ITS OWN extractor
    // (the state and storage in its span), staging completed feature
    // vectors as rows of one contiguous matrix; a single batched OC-SVM
    // scan then replaces per-session DecisionValue calls. Warm-up
    // semantics replicate NoveltyDetector::Score exactly: non-positive
    // observations skip the extractor entirely, incomplete windows
    // score 0.
    const core::NoveltyDetector::Probe& probe = model_->NoveltyProbe();
    const core::NoveltyDetectorConfig& novelty = model_->NoveltyConfig();
    tile.features.ReshapeUninitialized(count, 2 * novelty.k);
    std::size_t staged = 0;
    for (std::size_t j = 0; j < count; ++j) {
      const Request& r = requests[live[j]];
      scores[j] = 0.0;
      const double observation = probe(*r.state);
      if (observation <= 0.0) continue;
      const std::span<double> span = lane.sessions.Scratch(LocalOf(r.session));
      if (core::NoveltyFeatureExtractor::Push(
              novelty, NoveltyOf(span),
              span.subspan(ring_width_ + kNoveltyStateDoubles), observation,
              tile.features.Row(staged))) {
        tile.staged_of[staged++] = j;
      }
    }
    if (staged > 0) {
      const std::span<double> values(tile.values.data(), staged);
      model_->NoveltyDecisionValues(tile.features.data(), staged, values);
      for (std::size_t t = 0; t < staged; ++t) {
        scores[tile.staged_of[t]] = values[t] >= 0.0 ? 0.0 : 1.0;
      }
    }
  } else {
    // U_pi / U_V: pack the tile's states and score them with one fused
    // pass over the shared ensemble weights. For U_pi the same pass also
    // yields every session's deployed-actor action (the actor is ensemble
    // member 0), eliminating the separate actor pass below.
    tile.states.ReshapeUninitialized(count, input);
    for (std::size_t j = 0; j < count; ++j) {
      const mdp::State& st = *requests[live[j]].state;
      std::copy(st.data(), st.data() + input, tile.states.Row(j).data());
    }
    if (model_->ScoresYieldActions()) {
      scored_actions = std::span<mdp::Action>(tile.actions.data(), count);
    }
    model_->UncertaintyScores(tile.states, scores, scored_actions, tile.model);
  }

  // Advance each session's defaulting state machine in its record and
  // ring (the same core::SafetyObserve the sequential SafetyCore runs),
  // answering fallback sessions immediately and collecting the rest for
  // one batched deployed-actor pass (unless the scoring pass already
  // produced their actions).
  std::size_t learned = 0;
  for (std::size_t j = 0; j < count; ++j) {
    const Request& r = requests[live[j]];
    const std::size_t local = LocalOf(r.session);
    SessionRecord& session = lane.sessions[local];
    double* ring =
        ring_width_ > 0 ? lane.sessions.Scratch(local).data() : nullptr;
    if (core::SafetyObserve(safety, session.state, session.cold, ring,
                            scores[j])) {
      out[live[j]] = model_->FallbackAction(*r.state);
    } else if (!scored_actions.empty()) {
      out[live[j]] = scored_actions[j];
    } else {
      tile.learned_of[learned++] = j;
    }
  }
  if (learned > 0) {
    // The scoring pass is done with the packed states: repack the
    // learned rows in their place.
    tile.states.ReshapeUninitialized(learned, input);
    for (std::size_t t = 0; t < learned; ++t) {
      const mdp::State& st = *requests[live[tile.learned_of[t]]].state;
      std::copy(st.data(), st.data() + input, tile.states.Row(t).data());
    }
    const std::span<mdp::Action> actions(tile.actions.data(), learned);
    model_->GreedyActions(tile.states, actions, tile.model);
    for (std::size_t t = 0; t < learned; ++t) {
      out[live[tile.learned_of[t]]] = actions[t];
    }
  }
}

void DecisionService::AccumulateLane(std::size_t shard,
                                     ServiceMemoryStats& stats) const {
  const ShardLane& lane = *shards_[shard];
  const std::size_t slots = lane.sessions.SlabCount() * kSlabSlots;
  stats.slab_slots += slots;
  stats.record_bytes += slots * sizeof(SessionRecord);
  stats.span_bytes += slots * span_doubles_ * sizeof(double);
  stats.registry_bytes += lane.sessions.TableBytes() +
                          lane.free_ids.capacity() * sizeof(SessionId);
  // Every fresh id was opened once; the free list holds the closed ones.
  stats.session_slots += lane.fresh;
  stats.open_sessions += lane.fresh - lane.free_ids.size();
  const TileScratch& tile = lane.tile;
  stats.scratch_bytes +=
      sizeof(ShardLane) +
      (tile.states.values().capacity() + tile.features.values().capacity()) *
          sizeof(double) +
      tile.model.Bytes();
  stats.deferred_bytes += lane.deferred.capacity() * sizeof(std::size_t);
}

ServiceMemoryStats DecisionService::MemoryStats() const {
  ServiceMemoryStats stats;
  for (std::size_t s = 0; s < shards_.size(); ++s) AccumulateLane(s, stats);
  return stats;
}

ServiceMemoryStats DecisionService::MemoryStatsOfShard(
    std::size_t shard) const {
  OSAP_REQUIRE(shard < shards_.size(), "MemoryStatsOfShard: bad shard");
  ServiceMemoryStats stats;
  AccumulateLane(shard, stats);
  return stats;
}

}  // namespace osap::serve
