// Session churn at scale: 10k+ open/close/recycle cycles through a
// 4-shard DecisionService, checked against an independent
// sequential mirror (a fresh NoveltyDetector + SafetyCore per session -
// the pre-serving stack). Pins the slab/SoA bookkeeping the memory diet
// introduced:
//   - recycled slots start fresh (no stale trigger or extractor state
//     leaks from the previous occupant - the mirror would diverge),
//   - the one-decision-per-round stamp (last_round) survives slot
//     recycling: a repeat in one batch is deferred,
//   - the slot registry is bounded by the peak live population, not the
//     total number of sessions ever opened, and
//   - extractor slabs are trimmed once a population spike recedes.
// Rides in the serve_smoke_tests binary so `ctest -L sanitize` runs it
// under TSan and ASan (slab lifetime).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "abr/video.h"
#include "core/novelty_detector.h"
#include "core/safety_core.h"
#include "policies/pensieve_net.h"
#include "serve/decision_service.h"
#include "serve/serving_model.h"
#include "traces/generators.h"
#include "util/rng.h"

namespace osap::serve {
namespace {

struct ChurnWorld {
  abr::AbrStateLayout layout;
  abr::VideoSpec video = abr::MakeEnvivioLikeVideo(1);
  std::vector<std::shared_ptr<nn::ActorCriticNet>> agents;
  std::shared_ptr<core::NoveltyDetector> novelty;
  core::SafeAgentConfig safety;
};

ChurnWorld MakeChurnWorld() {
  ChurnWorld w;
  policies::PensieveNetConfig net;
  net.conv_filters = 2;
  net.hidden = 6;
  Rng rng(11);
  w.agents.push_back(std::make_shared<nn::ActorCriticNet>(
      policies::MakePensieveActorCritic(w.layout, net, rng)));
  core::NoveltyDetectorConfig nd;
  nd.throughput_window = 3;
  nd.k = 2;
  const auto id_gen = traces::MakeNorway3gGenerator();
  Rng trace_rng(13);
  std::vector<std::vector<double>> features;
  for (std::size_t i = 0; i < 3; ++i) {
    const traces::Trace t = id_gen->Generate(trace_rng, 300.0, 90 + i);
    const auto f = core::NoveltyDetector::ExtractFeatures(t.samples(), nd);
    features.insert(features.end(), f.begin(), f.end());
  }
  w.novelty = std::make_shared<core::NoveltyDetector>(nd, w.layout);
  w.novelty->Fit(features);
  w.safety.trigger.mode = core::TriggerMode::kBinary;
  w.safety.trigger.l = 2;
  return w;
}

/// The pre-serving sequential stack for one session: what the service's
/// per-slot state must behave like if recycling is leak-free.
struct Mirror {
  explicit Mirror(const ChurnWorld& w)
      : detector(*w.novelty), safety(w.safety) {
    detector.Reset();
  }
  core::NoveltyDetector detector;
  core::SafetyCore safety;
};

TEST(SessionChurnAtScale, TenThousandRecyclesMatchFreshMirrors) {
  const ChurnWorld w = MakeChurnWorld();
  const auto model =
      ServingModel::Novelty(w.agents, w.novelty, w.video, w.layout, w.safety);
  DecisionServiceConfig config;
  config.shard_count = 4;
  config.extractor_slab_slots = 64;  // several slabs per shard at peak
  DecisionService service(model, config);

  struct Live {
    DecisionService::SessionId id = 0;
    std::unique_ptr<Mirror> mirror;
    double mean_mbps = 0.0;  // this viewer's synthetic throughput regime
  };
  std::vector<Live> live;
  Rng rng(17);
  std::size_t total_opened = 0;
  const auto join = [&] {
    Live v;
    v.id = service.OpenSession();
    EXPECT_EQ(service.StepCount(v.id), 0u)
        << "recycled slot must start fresh (open #" << total_opened << ")";
    EXPECT_FALSE(service.Defaulted(v.id));
    v.mirror = std::make_unique<Mirror>(w);
    // Half the viewers stream in-distribution-ish throughput, half far
    // out of distribution so recycled slots flip between regimes - a
    // stale extractor window or trigger streak would surface as a
    // mirror divergence on the next occupant.
    v.mean_mbps = total_opened % 2 == 0 ? 1.0 : 40.0;
    ++total_opened;
    live.push_back(std::move(v));
  };

  constexpr std::size_t kPopulation = 1000;
  constexpr std::size_t kRounds = 40;
  constexpr std::size_t kChurnPerRound = 250;
  for (std::size_t i = 0; i < kPopulation; ++i) join();

  std::vector<mdp::State> states;
  std::vector<DecisionService::Request> requests;
  std::vector<mdp::Action> out;
  std::size_t peak_live = live.size();
  for (std::size_t round = 0; round < kRounds; ++round) {
    // Churn: a block of viewers leaves, a block joins (recycling slots).
    for (std::size_t c = 0; c < kChurnPerRound && !live.empty(); ++c) {
      const std::size_t leaver = rng.UniformInt(live.size());
      service.CloseSession(live[leaver].id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(leaver));
    }
    for (std::size_t c = 0; c < kChurnPerRound; ++c) join();
    peak_live = std::max(peak_live, live.size());

    // One decision round over every live viewer on synthetic states.
    states.assign(live.size(), mdp::State(w.layout.Size(), 0.0));
    requests.clear();
    for (std::size_t i = 0; i < live.size(); ++i) {
      const double mbps =
          std::max(0.05, rng.Normal(live[i].mean_mbps, 0.2));
      states[i][w.layout.ThroughputBegin() + w.layout.history - 1] =
          mbps / abr::AbrStateLayout::kThroughputNormMbps;
      states[i][w.layout.BufferIndex()] = 0.4;
      requests.push_back({live[i].id, &states[i]});
    }
    out.resize(requests.size());
    service.DecideBatch(requests, out);

    for (std::size_t i = 0; i < live.size(); ++i) {
      Mirror& m = *live[i].mirror;
      const double score = m.detector.Score(states[i]);
      m.safety.Observe(score);
      ASSERT_EQ(service.Defaulted(live[i].id), m.safety.Defaulted())
          << "round " << round << " viewer " << i;
      ASSERT_EQ(service.StepCount(live[i].id), m.safety.StepCount())
          << "round " << round << " viewer " << i;
    }
  }
  EXPECT_GT(total_opened, 10000u);

  // Slot reuse: the registry is bounded by the peak live population (plus
  // nothing), not by the 10k+ sessions ever opened.
  const ServiceMemoryStats stats = service.MemoryStats();
  EXPECT_EQ(stats.open_sessions, live.size());
  EXPECT_LE(stats.session_slots, peak_live + kChurnPerRound);

  // The one-decision-per-round stamp survives recycling: close one
  // viewer, reopen (recycles its slot), and submit the id twice in one
  // batch. The repeat is deferred, and its re-submission decides it.
  service.CloseSession(live.back().id);
  const auto recycled = service.OpenSession();
  mdp::State state(w.layout.Size(), 0.0);
  const DecisionService::Request twice[] = {{recycled, &state},
                                            {recycled, &state}};
  constexpr mdp::Action kUnanswered = -1;
  mdp::Action two[2] = {kUnanswered, kUnanswered};
  const std::span<const std::size_t> deferred =
      service.DecideBatch(twice, two);
  EXPECT_EQ(std::vector<std::size_t>(deferred.begin(), deferred.end()),
            std::vector<std::size_t>{1});
  EXPECT_EQ(two[1], kUnanswered);
  EXPECT_EQ(service.StepCount(recycled), 1u);
  EXPECT_TRUE(service.DecideBatch({&twice[1], 1}, {&two[1], 1}).empty());
  EXPECT_NE(two[1], kUnanswered);
  EXPECT_EQ(service.StepCount(recycled), 2u);

  // Extractor slabs drain once the population recedes: close everything
  // and the trailing-slab trim should release nearly all extractor bytes.
  const std::size_t extractor_peak = stats.extractor_bytes;
  service.CloseSession(recycled);
  live.pop_back();
  for (const Live& v : live) service.CloseSession(v.id);
  const ServiceMemoryStats drained = service.MemoryStats();
  EXPECT_EQ(drained.open_sessions, 0u);
  EXPECT_LT(drained.extractor_bytes, extractor_peak / 4)
      << "wholly free slabs must be trimmed after a mass close";
}

}  // namespace
}  // namespace osap::serve
