// DecisionService API, bookkeeping and memory tests. Bit-identity with the
// sequential SafeAgent (and the wire) is the differential oracle's job
// (defaulting_oracle_test.cc).
#include "serve/decision_service.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "serve/serving_model.h"
#include "testing/serve_world.h"

namespace osap::serve {
namespace {

std::shared_ptr<const ServingModel> PermanentModel(Signal signal) {
  return testing::ModelFor(testing::SharedServeWorld(), signal,
                           core::DefaultingMode::kPermanent);
}

std::size_t StateSize() { return testing::SharedServeWorld().layout.Size(); }

/// A one-request DecideBatch.
mdp::Action DecideOne(DecisionService& service, DecisionService::SessionId id,
                      const mdp::State& state) {
  const DecisionService::Request request{id, &state};
  mdp::Action action = 0;
  service.DecideBatch({&request, 1}, {&action, 1});
  return action;
}

// One decision per session per round: a session's second request in one
// batch is deferred (left unanswered and returned), not decided, and the
// caller's re-submission decides it.
TEST(DecisionServiceApi, DuplicateSessionInOneBatchIsDeferred) {
  DecisionService service(PermanentModel(Signal::kAgentEnsemble));
  const auto id = service.OpenSession();
  const mdp::State state(StateSize(), 0.0);
  const DecisionService::Request requests[] = {{id, &state}, {id, &state}};
  constexpr mdp::Action kUnanswered = -1;
  mdp::Action out[2] = {kUnanswered, kUnanswered};
  const std::span<const std::size_t> deferred =
      service.DecideBatch(requests, out);
  EXPECT_EQ(std::vector<std::size_t>(deferred.begin(), deferred.end()),
            std::vector<std::size_t>{1});
  EXPECT_NE(out[0], kUnanswered);
  EXPECT_EQ(out[1], kUnanswered);
  EXPECT_EQ(service.StepCount(id), 1u);

  EXPECT_TRUE(service.DecideBatch({&requests[1], 1}, {&out[1], 1}).empty());
  EXPECT_NE(out[1], kUnanswered);
  EXPECT_EQ(service.StepCount(id), 2u);
}

TEST(DecisionServiceApi, UnknownSessionThrows) {
  DecisionService service(PermanentModel(Signal::kAgentEnsemble));
  const mdp::State state(StateSize(), 0.0);
  EXPECT_THROW(DecideOne(service, 0, state), std::invalid_argument);
  const auto id = service.OpenSession();
  service.CloseSession(id);
  EXPECT_THROW(DecideOne(service, id, state), std::invalid_argument);
  EXPECT_THROW(service.CloseSession(id), std::invalid_argument);
}

TEST(DecisionServiceApi, MissizedStateThrows) {
  DecisionService service(PermanentModel(Signal::kAgentEnsemble));
  const auto id = service.OpenSession();
  const mdp::State tiny(2, 0.0);
  EXPECT_THROW(DecideOne(service, id, tiny), std::invalid_argument);
}

TEST(DecisionServiceApi, EmptyBatchIsANoOp) {
  DecisionService service(PermanentModel(Signal::kAgentEnsemble));
  service.DecideBatch({}, {});
  EXPECT_EQ(service.ActiveSessionCount(), 0u);
}

TEST(DecisionServiceApi, RecycledSlotStartsFresh) {
  DecisionService service(PermanentModel(Signal::kAgentEnsemble));
  const auto id = service.OpenSession();
  const mdp::State state(StateSize(), 0.0);
  DecideOne(service, id, state);
  DecideOne(service, id, state);
  EXPECT_EQ(service.StepCount(id), 2u);
  service.CloseSession(id);
  EXPECT_EQ(service.ActiveSessionCount(), 0u);
  const auto recycled = service.OpenSession();
  EXPECT_EQ(recycled, id);
  EXPECT_EQ(service.StepCount(recycled), 0u);
  EXPECT_FALSE(service.Defaulted(recycled));
}

TEST(DecisionServiceApi, SessionBookkeeping) {
  DecisionService service(PermanentModel(Signal::kValueEnsemble),
                          DecisionServiceConfig{.shard_count = 3});
  EXPECT_EQ(service.GroupEnd(0), 3u);
  const auto a = service.OpenSession();
  const auto b = service.OpenSession();
  const auto c = service.OpenSession();
  EXPECT_EQ(service.ActiveSessionCount(), 3u);
  service.CloseSession(b);
  EXPECT_EQ(service.ActiveSessionCount(), 2u);
  EXPECT_NE(a, c);
}

TEST(DecisionServiceApi, SingleSubmitterIdsRecycleMostRecentFirst) {
  // One submitter group hands out ids 0, 1, 2, ... across the shards and
  // recycles the most recently closed id first.
  DecisionService service(PermanentModel(Signal::kAgentEnsemble),
                          DecisionServiceConfig{.shard_count = 3});
  for (DecisionService::SessionId id = 0; id < 5; ++id) {
    EXPECT_EQ(service.OpenSession(), id);
  }
  service.CloseSession(1);
  service.CloseSession(3);
  EXPECT_EQ(service.OpenSession(), 3u);
  EXPECT_EQ(service.OpenSession(), 1u);
  EXPECT_EQ(service.OpenSession(), 5u);
}

TEST(DecisionServiceMemory, UpiSessionsFitTheBudget) {
  // The memory-diet contract: a U_pi session is one slot - its record
  // (SafetyState, cold fields, round stamp, submitter tag, open flag)
  // and its variance-trigger ring - plus a few registry bytes: no
  // extractor, no per-session heap objects. 256 B/session leaves room
  // for slab rounding on top of the ~100 B of state.
  DecisionService service(PermanentModel(Signal::kAgentEnsemble),
                          DecisionServiceConfig{.shard_count = 4});
  constexpr std::size_t kMany = 10000;
  for (std::size_t i = 0; i < kMany; ++i) service.OpenSession();

  const ServiceMemoryStats stats = service.MemoryStats();
  EXPECT_EQ(stats.open_sessions, kMany);
  EXPECT_EQ(stats.session_slots, kMany);
  EXPECT_GE(stats.slab_slots, kMany);
  // The span is exactly the trigger ring: U_pi pays zero extractor bytes.
  EXPECT_EQ(stats.span_bytes,
            stats.slab_slots * testing::kWorldTriggerK * sizeof(double));
  // The record counts every open session's state, cold fields, submitter
  // tag (the wire edge's per-session state), open flag and round stamp.
  EXPECT_GE(stats.record_bytes,
            stats.slab_slots *
                (sizeof(core::SafetyState) + sizeof(core::SafetyCold) +
                 sizeof(DecisionService::SubmitterTag) + sizeof(bool) +
                 sizeof(std::uint64_t)));
  EXPECT_LE(stats.BytesPerSession(), 256.0)
      << "records " << stats.record_bytes << " spans " << stats.span_bytes
      << " registry " << stats.registry_bytes;
}

TEST(DecisionServiceMemory, NoveltySessionsFitTheBudget) {
  // U_S spans hold the extractor (its state plus window + pair storage)
  // and no trigger ring (binary trigger): the budget is 512 B/session
  // including slab rounding.
  const auto model = PermanentModel(Signal::kNovelty);
  DecisionService service(model, DecisionServiceConfig{.shard_count = 4});
  constexpr std::size_t kMany = 10000;
  for (std::size_t i = 0; i < kMany; ++i) service.OpenSession();

  const ServiceMemoryStats stats = service.MemoryStats();
  EXPECT_EQ(stats.open_sessions, kMany);
  EXPECT_GE(stats.slab_slots, kMany);
  EXPECT_EQ(stats.span_bytes,
            stats.slab_slots *
                (sizeof(core::NoveltyFeatureState) +
                 core::NoveltyFeatureExtractor::StorageDoubles(
                     model->NoveltyConfig()) *
                     sizeof(double)))
      << "binary-trigger sessions must pay zero ring bytes";
  EXPECT_LE(stats.BytesPerSession(), 512.0);
}

TEST(DecisionServiceMemory, ScratchIsBoundedByTheTile) {
  // Every pass runs one tile of at most kRowTile live requests, so a
  // 4096-session round leaves the scratch exactly as an 8-session round
  // left it; only the group's per-request routing arrays follow the round.
  for (const Signal signal : {Signal::kNovelty, Signal::kAgentEnsemble,
                              Signal::kValueEnsemble}) {
    SCOPED_TRACE(static_cast<int>(signal));
    DecisionService service(PermanentModel(signal),
                            DecisionServiceConfig{.shard_count = 2});
    constexpr std::size_t kSpike = 4096;
    constexpr std::size_t kTrickle = 8;
    const mdp::State state(StateSize(), 0.5);
    std::vector<DecisionService::Request> requests;
    for (std::size_t i = 0; i < kSpike; ++i) {
      requests.push_back({service.OpenSession(), &state});
    }
    std::vector<mdp::Action> out(kSpike);
    service.DecideBatch(std::span(requests).first(kTrickle), out);
    const ServiceMemoryStats trickle = service.MemoryStats();

    service.DecideBatch(requests, out);
    const ServiceMemoryStats spike = service.MemoryStats();
    EXPECT_EQ(spike.scratch_bytes, trickle.scratch_bytes);
    EXPECT_GE(spike.routing_bytes, kSpike * sizeof(std::size_t));
  }
}

TEST(DecisionServiceApi, InvalidConstructionThrows) {
  EXPECT_THROW(DecisionService(nullptr), std::invalid_argument);
  EXPECT_THROW(DecisionService(PermanentModel(Signal::kAgentEnsemble),
                               DecisionServiceConfig{.shard_count = 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace osap::serve
