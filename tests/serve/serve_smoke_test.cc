// Thread-sanitizer smoke for DecisionService submitter groups.
//
// 3 shards split into 2 submitter groups, each driven by its own thread
// (open / close / decide / per-group memory stats), checked round for
// round against a single-submitter service. Every group runs its own
// shards on its own thread, so these scenarios are the service's only
// cross-thread path. Built into its own binary so the sanitize ctest
// label can select it; under TSan this exercises the claim that groups
// share no mutable state.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "abr/abr_environment.h"
#include "abr/video.h"
#include "core/novelty_detector.h"
#include "policies/pensieve_net.h"
#include "serve/decision_service.h"
#include "serve/serving_model.h"
#include "traces/generators.h"

namespace osap::serve {
namespace {

constexpr std::size_t kSessions = 12;
constexpr std::size_t kRounds = 40;

struct SmokeWorld {
  abr::AbrStateLayout layout;
  abr::VideoSpec video = abr::MakeEnvivioLikeVideo(1);
  std::vector<std::shared_ptr<nn::ActorCriticNet>> agents;
  std::shared_ptr<core::NoveltyDetector> novelty;
  std::vector<traces::Trace> traces;
};

SmokeWorld MakeSmokeWorld() {
  SmokeWorld w;
  policies::PensieveNetConfig net;
  net.conv_filters = 2;
  net.hidden = 6;
  Rng rng(5);
  for (std::size_t m = 0; m < 3; ++m) {
    w.agents.push_back(std::make_shared<nn::ActorCriticNet>(
        policies::MakePensieveActorCritic(w.layout, net, rng)));
  }
  const auto id_gen = traces::MakeNorway3gGenerator();
  const auto ood_gen = traces::MakeBelgium4gGenerator();
  Rng trace_rng(7);
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto& gen = i % 2 == 0 ? id_gen : ood_gen;
    w.traces.push_back(gen->Generate(trace_rng, 150.0, i));
  }
  core::NoveltyDetectorConfig nd;
  nd.throughput_window = 3;
  nd.k = 2;
  std::vector<std::vector<double>> features;
  for (std::size_t i = 0; i < 3; ++i) {
    const traces::Trace t = id_gen->Generate(trace_rng, 300.0, 50 + i);
    const auto f = core::NoveltyDetector::ExtractFeatures(t.samples(), nd);
    features.insert(features.end(), f.begin(), f.end());
  }
  w.novelty = std::make_shared<core::NoveltyDetector>(nd, w.layout);
  w.novelty->Fit(features);
  return w;
}

std::shared_ptr<const ServingModel> SmokeModel(const SmokeWorld& w,
                                               Signal signal) {
  core::SafeAgentConfig safety;
  safety.trigger.l = 2;
  safety.trigger.k = 4;
  if (signal == Signal::kNovelty) {
    safety.trigger.mode = core::TriggerMode::kBinary;
    return ServingModel::Novelty(w.agents, w.novelty, w.video, w.layout,
                                 safety);
  }
  safety.trigger.mode = core::TriggerMode::kWindowVariance;
  safety.trigger.alpha = 1e-4;
  return ServingModel::AgentEnsemble(w.agents, 1, w.video, w.layout, safety);
}

/// One viewer of the submitter-group scenarios: the same closed-loop
/// session under its id in the grouped service and in the reference.
struct GroupViewer {
  DecisionService::SessionId grouped = 0;
  DecisionService::SessionId reference = 0;
  abr::AbrEnvironment env;
  mdp::State state;
  mdp::Action action = 0;  // the grouped service's answer this round
};

/// 3 shards in 2 submitter groups ([0, 2) and [2, 3)). Every round each group's thread optionally churns
/// its own viewers (close a random one / open a fresh one, when `churn`),
/// submits its slice through DecideBatch and reads its own memory stats,
/// concurrently with the other group. The main thread then replays the
/// churn on a single-submitter service, decides all viewers there
/// and requires identical answers.
void RunGroupSmoke(const SmokeWorld& w, Signal signal, bool churn) {
  constexpr std::size_t kGroups = 2;
  DecisionServiceConfig grouped_config;
  grouped_config.shard_count = 3;
  grouped_config.submitter_count = kGroups;
  DecisionService grouped(SmokeModel(w, signal), grouped_config);
  ASSERT_EQ(grouped.GroupBegin(1), 2u);
  DecisionServiceConfig reference_config;
  reference_config.shard_count = 3;
  DecisionService reference(SmokeModel(w, signal), reference_config);

  std::vector<std::vector<GroupViewer>> viewers(kGroups);
  std::vector<std::size_t> next_trace(kGroups);
  const auto join = [&](std::size_t g) {  // grouped side only
    GroupViewer v{grouped.OpenSession(g), 0,
                  abr::AbrEnvironment(w.video, abr::AbrEnvironmentConfig{}),
                  {}};
    EXPECT_EQ(DecisionService::GroupOfShard(grouped.ShardOfSession(v.grouped),
                                            3, kGroups),
              g);
    // Consecutive traces alternate ID / OOD, so each group gets both.
    v.env.SetFixedTrace(w.traces[(next_trace[g]++ + 5 * g) % w.traces.size()]);
    v.state = v.env.Reset();
    viewers[g].push_back(std::move(v));
  };
  for (std::size_t i = 0; i < kSessions; ++i) join(i % kGroups);
  for (auto& group : viewers) {
    for (GroupViewer& v : group) v.reference = reference.OpenSession();
  }

  std::vector<std::vector<DecisionService::SessionId>> closed(kGroups);
  std::vector<std::size_t> fresh(kGroups, 0);  // joins this round
  std::vector<std::size_t> peak(kGroups);
  std::vector<ServiceMemoryStats> group_stats(kGroups);
  std::vector<std::mt19937> rngs{std::mt19937(11), std::mt19937(23)};
  for (std::size_t g = 0; g < kGroups; ++g) peak[g] = viewers[g].size();

  const auto run_group = [&](std::size_t g) {
    std::vector<GroupViewer>& mine = viewers[g];
    closed[g].clear();
    fresh[g] = 0;
    if (churn) {
      std::mt19937& rng = rngs[g];
      if (!mine.empty() && rng() % 3 == 0) {
        const std::size_t leaver = rng() % mine.size();
        grouped.CloseSession(mine[leaver].grouped);
        closed[g].push_back(mine[leaver].reference);
        mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(leaver));
      }
      const std::size_t joins = rng() % 3;  // 0..2 viewers join
      for (std::size_t j = 0; j < joins; ++j) join(g);
      fresh[g] = joins;
      peak[g] = std::max(peak[g], mine.size());
    }
    std::vector<DecisionService::Request> requests;
    for (GroupViewer& v : mine) requests.push_back({v.grouped, &v.state});
    std::vector<mdp::Action> out(requests.size());
    grouped.DecideBatch(requests, out);
    for (std::size_t j = 0; j < mine.size(); ++j) mine[j].action = out[j];
    group_stats[g] = grouped.MemoryStatsOfGroup(g);
  };

  std::vector<DecisionService::Request> requests;
  std::vector<mdp::Action> out;
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::thread second(run_group, 1);
    run_group(0);
    second.join();

    // Replay the churn on the reference, group by group.
    for (std::size_t g = 0; g < kGroups; ++g) {
      for (const auto id : closed[g]) reference.CloseSession(id);
      for (std::size_t j = viewers[g].size() - fresh[g];
           j < viewers[g].size(); ++j) {
        viewers[g][j].reference = reference.OpenSession();
      }
    }
    requests.clear();
    for (auto& group : viewers) {
      for (GroupViewer& v : group) requests.push_back({v.reference, &v.state});
    }
    out.resize(requests.size());
    reference.DecideBatch(requests, out);
    std::size_t j = 0;
    for (auto& group : viewers) {
      for (GroupViewer& v : group) {
        ASSERT_EQ(v.action, out[j++]) << "round " << round;
        ASSERT_EQ(grouped.Defaulted(v.grouped),
                  reference.Defaulted(v.reference));
        ASSERT_EQ(grouped.StepCount(v.grouped),
                  reference.StepCount(v.reference));
        mdp::StepResult result = v.env.Step(v.action);
        v.state = std::move(result.next_state);
        if (result.done) v.state = v.env.Reset();
      }
    }

    // Each group's allocator reuses its own freed ids before minting new
    // ones, so its slots never exceed its peak live population.
    for (std::size_t g = 0; g < kGroups; ++g) {
      EXPECT_EQ(group_stats[g].open_sessions, viewers[g].size());
      EXPECT_LE(group_stats[g].session_slots, peak[g]) << "group " << g;
    }
    EXPECT_EQ(grouped.MemoryStats().open_sessions,
              grouped.ActiveSessionCount());
  }
  EXPECT_EQ(grouped.ActiveSessionCount(), reference.ActiveSessionCount());
}

TEST(ServeSmoke, SubmitterGroupsMatchSerialService) {
  const SmokeWorld w = MakeSmokeWorld();
  RunGroupSmoke(w, Signal::kNovelty, /*churn=*/false);
  RunGroupSmoke(w, Signal::kAgentEnsemble, /*churn=*/false);
}

TEST(ServeSmoke, SubmitterGroupChurnStaysWithinPeak) {
  RunGroupSmoke(MakeSmokeWorld(), Signal::kNovelty, /*churn=*/true);
}

}  // namespace
}  // namespace osap::serve
