#include "serve/decision_service.h"

#include <algorithm>
#include <new>
#include <numeric>
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
  OSAP_REQUIRE(config.submitter_count >= 1 &&
                   config.submitter_count <= config.shard_count,
               "DecisionService: submitter_count must be in [1, shard_count]");
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
    // Groups are contiguous, so a new group starts at its first shard.
    const std::size_t g =
        GroupOfShard(s, config.shard_count, config.submitter_count);
    if (g == groups_.size()) {
      groups_.push_back(std::make_unique<SubmitterGroup>());
      groups_.back()->begin = s;
    }
    groups_.back()->end = s + 1;
    shards_.back()->group = g;
  }
  for (const auto& group : groups_) {
    group->offsets.resize(group->end - group->begin);
  }
}

DecisionService::SessionId DecisionService::OpenSession(std::size_t group) {
  OSAP_REQUIRE(group < groups_.size(), "OpenSession: bad group");
  SubmitterGroup& g = *groups_[group];
  SessionId id;
  if (!g.free_ids.empty()) {
    id = g.free_ids.back();
    g.free_ids.pop_back();
  } else {
    const std::size_t width = g.end - g.begin;
    id = (g.fresh / width) * shards_.size() + g.begin + g.fresh % width;
    ++g.fresh;
  }
  ShardLane& lane = *shards_[ShardOf(id)];
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
  shards_[ShardOf(id)]->sessions.Vacate(LocalOf(id));
  groups_[GroupOf(id)]->free_ids.push_back(id);
  active_count_.fetch_sub(1, std::memory_order_relaxed);
}

DecisionService::SubmitterTag* DecisionService::TagOf(std::size_t group,
                                                      SessionId id) {
  const SubmitterGroup& g = *groups_[group];
  const std::size_t shard = ShardOf(id);
  if (shard < g.begin || shard >= g.end) return nullptr;
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
  SubmitterGroup& group = *groups_[GroupOf(requests[0].session)];
  TileScratch& tile = group.tile;
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
  const std::size_t begin = group.begin;
  const std::size_t end = group.end;
  // Rounds draw from one global counter so reply epochs stay unique
  // across groups; each session's stamp lives in its record,
  // which only this group touches. A request whose session is already
  // stamped this round is deferred; the rest are counted per shard for
  // the routing sort.
  const std::uint64_t round =
      round_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::size_t input = model_->InputSize();
  std::vector<std::size_t>& offsets = group.offsets;
  std::fill(offsets.begin(), offsets.end(), 0);
  group.deferred.clear();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    const std::size_t shard = ShardOf(r.session);
    OSAP_REQUIRE(shard >= begin && shard < end,
                 "DecideBatch: session outside the submitter group");
    SessionRecord* session = FindOpen(r.session);
    OSAP_REQUIRE(session != nullptr, "DecideBatch: unknown session");
    OSAP_REQUIRE(r.state != nullptr && r.state->size() == input,
                 "DecideBatch: null or mis-sized state");
    if (session->last_round == round) {
      group.deferred.push_back(i);
      continue;
    }
    session->last_round = round;
    ++offsets[shard - begin];
  }

  // Route: a stable counting sort of the decided request indices by
  // shard, so each shard's slice of `order` keeps caller order. Then run
  // every non-empty shard in ascending order on this thread.
  std::exclusive_scan(offsets.begin(), offsets.end(), offsets.begin(),
                      std::size_t{0});
  group.order.resize(requests.size() - group.deferred.size());
  std::size_t next_deferred = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (next_deferred < group.deferred.size() &&
        group.deferred[next_deferred] == i) {
      ++next_deferred;
      continue;
    }
    group.order[offsets[ShardOf(requests[i].session) - begin]++] = i;
  }
  // The scatter advanced each shard's offset from its slice's start to
  // its end.
  std::size_t start = 0;
  for (std::size_t s = begin; s < end; ++s) {
    const std::size_t stop = offsets[s - begin];
    if (stop == start) continue;
    RunShard(s, tile, requests, out,
             std::span<const std::size_t>(group.order).subspan(start,
                                                               stop - start));
    start = stop;
  }
  return group.deferred;
}

void DecisionService::RunShard(std::size_t shard, TileScratch& tile,
                               std::span<const Request> requests,
                               std::span<mdp::Action> out,
                               std::span<const std::size_t> idx) {
  ShardLane& lane = *shards_[shard];
  const core::SafeAgentConfig& safety = model_->safety();
  // Triage as the tile fills: a kPermanent session that has defaulted is
  // answered from the fallback mapping right here (SafetyStepDefaulted
  // counts its step) and costs no tile row; kRevocable sessions are always
  // live. A session appears once per round, so tile order changes nothing.
  std::size_t count = 0;
  for (const std::size_t i : idx) {
    const Request& r = requests[i];
    if (core::SafetyStepDefaulted(safety,
                                  lane.sessions[LocalOf(r.session)].state)) {
      out[i] = model_->FallbackAction(*r.state);
      continue;
    }
    tile.live[count++] = i;
    if (count == core::kRowTile) {
      RunTile(lane, tile, requests, out, count);
      count = 0;
    }
  }
  if (count > 0) RunTile(lane, tile, requests, out, count);
}

void DecisionService::RunTile(ShardLane& lane, TileScratch& tile,
                              std::span<const Request> requests,
                              std::span<mdp::Action> out, std::size_t count) {
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
  stats.registry_bytes += lane.sessions.TableBytes();
  stats.scratch_bytes += sizeof(ShardLane);
}

void DecisionService::AccumulateGroup(std::size_t group,
                                      ServiceMemoryStats& stats) const {
  const SubmitterGroup& g = *groups_[group];
  for (std::size_t s = g.begin; s < g.end; ++s) AccumulateLane(s, stats);
  // Every fresh id was opened once; the free list holds the closed ones.
  stats.session_slots += g.fresh;
  stats.open_sessions += g.fresh - g.free_ids.size();
  stats.registry_bytes += g.free_ids.capacity() * sizeof(SessionId);
  const TileScratch& tile = g.tile;
  stats.scratch_bytes +=
      sizeof(SubmitterGroup) +
      (tile.states.values().capacity() + tile.features.values().capacity()) *
          sizeof(double) +
      tile.model.Bytes();
  stats.routing_bytes +=
      (g.offsets.capacity() + g.order.capacity() + g.deferred.capacity()) *
      sizeof(std::size_t);
}

ServiceMemoryStats DecisionService::MemoryStats() const {
  ServiceMemoryStats stats;
  for (std::size_t g = 0; g < groups_.size(); ++g) AccumulateGroup(g, stats);
  return stats;
}

ServiceMemoryStats DecisionService::MemoryStatsOfGroup(
    std::size_t group) const {
  OSAP_REQUIRE(group < groups_.size(), "MemoryStatsOfGroup: bad group");
  ServiceMemoryStats stats;
  AccumulateGroup(group, stats);
  return stats;
}

}  // namespace osap::serve
