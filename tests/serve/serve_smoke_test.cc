// Thread-sanitizer smoke for the DecisionService persistent shard workers.
//
// Runs mixed in-distribution / out-of-distribution viewers through a
// 4-shard service whose shards 1..3 live on persistent worker threads
// (epoch-ticket handoff) and checks the answers against a serial service
// (shard_workers = false) round for round. A second scenario churns the
// session set - viewers joining and leaving between epochs - while the
// workers stay parked, exercising the claim that the epoch ticket's
// release/acquire edge publishes membership changes to the worker that
// owns the session's shard. The submitter-group scenarios split 3 shards
// into 2 groups, each driven by its own thread (open / close / decide /
// per-group memory stats), and check the answers against a serial
// single-submitter service. The sparse-round scenario submits 0-3
// sessions per round, so a worker shard's lane is often run inline by the
// submitter (a round's first non-empty shard never gets a ticket) and its
// scratch alternates between the two threads. Built into its own binary
// so the sanitize ctest label can select it; under TSan this exercises
// the claim that shards touch disjoint sessions and output slots, that
// groups share no mutable state, and that the ring/ticket handoff is
// properly ordered.
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

/// Drives the worker-backed and serial services in lockstep over the same
/// closed-loop sessions and compares every answer.
void RunSmoke(const SmokeWorld& w, Signal signal) {
  DecisionServiceConfig parallel_config;
  parallel_config.shard_count = 4;
  parallel_config.shard_workers = true;
  DecisionService parallel(SmokeModel(w, signal), parallel_config);
  ASSERT_EQ(parallel.WorkerCount(), 3u);

  DecisionServiceConfig serial_config;
  serial_config.shard_count = 4;
  serial_config.shard_workers = false;  // all shards on the calling thread
  DecisionService serial(SmokeModel(w, signal), serial_config);
  ASSERT_EQ(serial.WorkerCount(), 0u);

  std::vector<DecisionService::SessionId> ids(kSessions);
  std::vector<abr::AbrEnvironment> envs;
  envs.reserve(kSessions);
  std::vector<mdp::State> states(kSessions);
  std::vector<bool> done(kSessions, false);
  for (std::size_t i = 0; i < kSessions; ++i) {
    ids[i] = parallel.OpenSession();
    const auto serial_id = serial.OpenSession();
    ASSERT_EQ(ids[i], serial_id);
    envs.emplace_back(w.video, abr::AbrEnvironmentConfig{});
    envs[i].SetFixedTrace(w.traces[i]);
    states[i] = envs[i].Reset();
  }

  std::vector<DecisionService::Request> requests;
  std::vector<mdp::Action> parallel_out;
  std::vector<mdp::Action> serial_out;
  std::vector<std::size_t> request_session;
  for (std::size_t round = 0; round < kRounds; ++round) {
    requests.clear();
    request_session.clear();
    for (std::size_t i = 0; i < kSessions; ++i) {
      if (done[i]) continue;
      requests.push_back({ids[i], &states[i]});
      request_session.push_back(i);
    }
    if (requests.empty()) break;
    parallel_out.resize(requests.size());
    serial_out.resize(requests.size());
    parallel.DecideBatch(requests, parallel_out);
    serial.DecideBatch(requests, serial_out);
    ASSERT_EQ(parallel_out, serial_out) << "round " << round;
    for (std::size_t j = 0; j < requests.size(); ++j) {
      const std::size_t i = request_session[j];
      mdp::StepResult result = envs[i].Step(parallel_out[j]);
      states[i] = std::move(result.next_state);
      done[i] = result.done;
    }
  }
  for (std::size_t i = 0; i < kSessions; ++i) {
    EXPECT_EQ(parallel.Defaulted(ids[i]), serial.Defaulted(ids[i]));
    EXPECT_EQ(parallel.StepCount(ids[i]), serial.StepCount(ids[i]));
  }
}

TEST(ServeSmoke, NoveltyShardsRaceFree) {
  RunSmoke(MakeSmokeWorld(), Signal::kNovelty);
}

TEST(ServeSmoke, AgentEnsembleShardsRaceFree) {
  RunSmoke(MakeSmokeWorld(), Signal::kAgentEnsemble);
}

/// Session churn between epochs while the workers persist: every few
/// rounds one viewer leaves (its slot is recycled by a fresh viewer on a
/// different trace) and an extra viewer joins, so ring sizes grow, shard
/// membership shifts, and recycled SessionContexts cross the epoch
/// ticket into the worker threads. Answers must still match the serial
/// service performing the identical churn.
TEST(ServeSmoke, SessionChurnAcrossEpochs) {
  const SmokeWorld w = MakeSmokeWorld();
  DecisionServiceConfig parallel_config;
  parallel_config.shard_count = 4;
  parallel_config.shard_workers = true;
  DecisionService parallel(SmokeModel(w, Signal::kNovelty), parallel_config);
  DecisionServiceConfig serial_config;
  serial_config.shard_count = 4;
  serial_config.shard_workers = false;
  DecisionService serial(SmokeModel(w, Signal::kNovelty), serial_config);

  // One live viewer per id; churn keeps both services' id assignments in
  // lockstep so the comparison stays exact.
  struct Viewer {
    DecisionService::SessionId id = 0;
    abr::AbrEnvironment env;
    mdp::State state;
  };
  std::vector<Viewer> viewers;
  std::size_t next_trace = 0;
  const auto join = [&] {
    Viewer v{parallel.OpenSession(),
             abr::AbrEnvironment(w.video, abr::AbrEnvironmentConfig{}),
             {}};
    const auto serial_id = serial.OpenSession();
    ASSERT_EQ(v.id, serial_id);
    v.env.SetFixedTrace(w.traces[next_trace++ % w.traces.size()]);
    v.state = v.env.Reset();
    viewers.push_back(std::move(v));
  };
  for (std::size_t i = 0; i < 6; ++i) join();

  std::vector<DecisionService::Request> requests;
  std::vector<mdp::Action> parallel_out;
  std::vector<mdp::Action> serial_out;
  for (std::size_t round = 0; round < kRounds; ++round) {
    if (round % 5 == 3 && !viewers.empty()) {
      // One viewer leaves mid-run; both services retire the same id.
      const std::size_t leaver = round % viewers.size();
      parallel.CloseSession(viewers[leaver].id);
      serial.CloseSession(viewers[leaver].id);
      viewers.erase(viewers.begin() + static_cast<std::ptrdiff_t>(leaver));
    }
    if (round % 4 == 1) join();  // and another joins (may recycle the slot)
    requests.clear();
    for (Viewer& v : viewers) requests.push_back({v.id, &v.state});
    parallel_out.resize(requests.size());
    serial_out.resize(requests.size());
    parallel.DecideBatch(requests, parallel_out);
    serial.DecideBatch(requests, serial_out);
    ASSERT_EQ(parallel_out, serial_out) << "round " << round;
    for (std::size_t j = 0; j < viewers.size(); ++j) {
      mdp::StepResult result = viewers[j].env.Step(parallel_out[j]);
      viewers[j].state = std::move(result.next_state);
      if (result.done) viewers[j].state = viewers[j].env.Reset();
    }
  }
  EXPECT_EQ(parallel.ActiveSessionCount(), serial.ActiveSessionCount());
}

/// Mirrors DecisionService::kLaneShrinkEpochs: a lane runs its scratch
/// shrink check on every 64th epoch it drains.
constexpr std::size_t kShrinkEpochs = 64;
constexpr std::size_t kSparseRounds = 1200;

/// Sparse rounds on a `shards`-shard service with workers against the
/// serial service: each round carries 0-3 randomly chosen viewers (every
/// 150th round carries all of them, so the lanes' scratch grows and the
/// shrink check has something to release), and every 7th round one
/// viewer leaves and a fresh one joins. Rounds whose requests all sit on
/// worker shards run the first of them on the submitting thread, so each
/// worker lane is drained by both threads; the test counts, from the
/// round composition, which thread ran each lane's shrink-check epochs
/// and requires both to have run some. Actions, Defaulted and StepCount
/// must match the serial service bit for bit.
void RunSparseSmoke(const SmokeWorld& w, Signal signal, std::size_t shards) {
  DecisionServiceConfig parallel_config;
  parallel_config.shard_count = shards;
  parallel_config.shard_workers = true;
  DecisionService parallel(SmokeModel(w, signal), parallel_config);
  ASSERT_EQ(parallel.WorkerCount(), shards - 1);
  DecisionServiceConfig serial_config;
  serial_config.shard_count = shards;
  serial_config.shard_workers = false;
  DecisionService serial(SmokeModel(w, signal), serial_config);

  struct Viewer {
    DecisionService::SessionId id = 0;
    abr::AbrEnvironment env;
    mdp::State state;
  };
  std::vector<Viewer> viewers;
  std::size_t next_trace = 0;
  const auto join = [&] {
    Viewer v{parallel.OpenSession(),
             abr::AbrEnvironment(w.video, abr::AbrEnvironmentConfig{}),
             {}};
    const auto serial_id = serial.OpenSession();
    ASSERT_EQ(v.id, serial_id);
    v.env.SetFixedTrace(w.traces[next_trace++ % w.traces.size()]);
    v.state = v.env.Reset();
    viewers.push_back(std::move(v));
  };
  for (std::size_t i = 0; i < kSessions; ++i) join();

  std::mt19937 rng(static_cast<unsigned>(17 * shards) +
                   static_cast<unsigned>(signal));
  std::vector<std::size_t> epochs(shards, 0);  // non-empty rounds per lane
  std::size_t shrink_inline = 0, shrink_on_worker = 0;
  std::size_t worker_only_rounds = 0;
  std::vector<std::size_t> order;
  std::vector<DecisionService::Request> requests;
  std::vector<mdp::Action> parallel_out;
  std::vector<mdp::Action> serial_out;
  for (std::size_t round = 0; round < kSparseRounds; ++round) {
    if (round % 7 == 3) {
      const std::size_t leaver = rng() % viewers.size();
      parallel.CloseSession(viewers[leaver].id);
      serial.CloseSession(viewers[leaver].id);
      viewers.erase(viewers.begin() + static_cast<std::ptrdiff_t>(leaver));
      join();
    }
    order.resize(viewers.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    order.resize(round % 150 == 149 ? viewers.size() : rng() % 4);

    requests.clear();
    std::vector<bool> touched(shards, false);
    for (const std::size_t i : order) {
      requests.push_back({viewers[i].id, &viewers[i].state});
      touched[parallel.ShardOfSession(viewers[i].id)] = true;
    }
    bool inline_taken = false;  // the first non-empty shard runs inline
    for (std::size_t s = 0; s < shards; ++s) {
      if (!touched[s]) continue;
      if (++epochs[s] % kShrinkEpochs == 0 && s > 0) {
        ++(inline_taken ? shrink_on_worker : shrink_inline);
      }
      if (s > 0 && !inline_taken) ++worker_only_rounds;
      inline_taken = true;
    }

    parallel_out.resize(requests.size());
    serial_out.resize(requests.size());
    parallel.DecideBatch(requests, parallel_out);
    serial.DecideBatch(requests, serial_out);
    ASSERT_EQ(parallel_out, serial_out) << "round " << round;
    for (std::size_t j = 0; j < order.size(); ++j) {
      Viewer& v = viewers[order[j]];
      ASSERT_EQ(parallel.Defaulted(v.id), serial.Defaulted(v.id))
          << "round " << round;
      ASSERT_EQ(parallel.StepCount(v.id), serial.StepCount(v.id))
          << "round " << round;
      mdp::StepResult result = v.env.Step(parallel_out[j]);
      v.state = std::move(result.next_state);
      if (result.done) v.state = v.env.Reset();
    }
  }
  for (const Viewer& v : viewers) {
    EXPECT_EQ(parallel.Defaulted(v.id), serial.Defaulted(v.id));
    EXPECT_EQ(parallel.StepCount(v.id), serial.StepCount(v.id));
  }
  // The scenario must have covered what it claims to.
  EXPECT_GT(worker_only_rounds, kShrinkEpochs);
  EXPECT_GT(shrink_inline, 0u) << "no worker lane shrank on the submitter";
  EXPECT_GT(shrink_on_worker, 0u) << "no worker lane shrank on its worker";
}

TEST(ServeSmoke, SparseRoundsRunWorkerShardsInline) {
  const SmokeWorld w = MakeSmokeWorld();
  for (const std::size_t shards : {2u, 4u}) {
    SCOPED_TRACE(shards);
    RunSparseSmoke(w, Signal::kNovelty, shards);
    RunSparseSmoke(w, Signal::kAgentEnsemble, shards);
  }
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

/// 3 shards in 2 submitter groups ([0, 2) and [2, 3)), shard 1 on a
/// persistent worker. Every round each group's thread optionally churns
/// its own viewers (close a random one / open a fresh one, when `churn`),
/// submits its slice through DecideBatch and reads its own memory stats,
/// concurrently with the other group. The main thread then replays the
/// churn on a serial single-submitter service, decides all viewers there
/// and requires identical answers.
void RunGroupSmoke(const SmokeWorld& w, Signal signal, bool churn) {
  constexpr std::size_t kGroups = 2;
  DecisionServiceConfig grouped_config;
  grouped_config.shard_count = 3;
  grouped_config.submitter_count = kGroups;
  DecisionService grouped(SmokeModel(w, signal), grouped_config);
  ASSERT_EQ(grouped.WorkerCount(), 1u);
  ASSERT_EQ(grouped.GroupBegin(1), 2u);
  DecisionServiceConfig reference_config;
  reference_config.shard_count = 3;
  reference_config.shard_workers = false;
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
