#include "testing/defaulting_oracle.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "abr/abr_environment.h"
#include "core/safe_agent.h"
#include "policies/buffer_based.h"
#include "policies/pensieve_policy.h"
#include "serve/decision_service.h"
#include "testing/reference_trigger.h"

namespace osap::testing {
namespace {

using serve::DecisionService;

/// A lane must reach this many non-empty rounds in the sparse profile, so
/// one group's tile scratch serves many rounds of 1-3 requests.
constexpr std::size_t kBusyLaneRounds = 64;
constexpr std::size_t kChurnRecycles = 10000;

/// Forwards to the sequential estimator and records every score.
class RecordingEstimator final : public core::UncertaintyEstimator {
 public:
  RecordingEstimator(std::shared_ptr<core::UncertaintyEstimator> inner,
                     std::vector<double>& scores)
      : inner_(std::move(inner)), scores_(scores) {}
  void Reset() override { inner_->Reset(); }
  double Score(const mdp::State& state) override {
    return scores_.emplace_back(inner_->Score(state));
  }
  bool Ready() const override { return inner_->Ready(); }
  std::string Name() const override { return inner_->Name(); }

 private:
  std::shared_ptr<core::UncertaintyEstimator> inner_;
  std::vector<double>& scores_;
};

traces::Trace TraceOf(const ServeWorld& w, const SessionScript& script) {
  if (script.switch_sample == kNoSwitch) return w.traces[script.id_trace];
  if (script.switch_sample == 0) return w.traces[script.ood_trace];
  const traces::Trace& id = w.traces[script.id_trace];
  std::vector<double> samples = id.samples();
  samples.resize(std::min(script.switch_sample, samples.size()));
  const std::vector<double>& ood = w.traces[script.ood_trace].samples();
  samples.insert(samples.end(), ood.begin(), ood.end());
  return traces::Trace("id_to_ood", id.interval_seconds(), std::move(samples));
}

/// Steps at which `flags` turns on: where the session defaulted.
std::vector<std::size_t> DefaultSteps(const std::vector<char>& flags) {
  std::vector<std::size_t> steps;
  for (std::size_t t = 0; t < flags.size(); ++t) {
    if (flags[t] && (t == 0 || !flags[t - 1])) steps.push_back(t);
  }
  return steps;
}

std::string Join(std::span<const std::size_t> v) {
  std::ostringstream out;
  for (const std::size_t x : v) out << x << ' ';
  return out.str();
}

/// One path's answer and defaulted flag per session per step.
struct Answers {
  explicit Answers(const Schedule& schedule) {
    for (const SessionScript& s : schedule.sessions) {
      actions.emplace_back(s.steps, -1);
      defaulted.emplace_back(s.steps, 0);
    }
  }
  std::vector<std::vector<mdp::Action>> actions;
  std::vector<std::vector<char>> defaulted;
};

/// What the service path saw, summed over the groups.
struct Coverage {
  explicit Coverage(std::size_t shards) : lane_rounds(shards) {}
  std::atomic<std::size_t> empty_rounds{0};
  std::atomic<std::size_t> one_shard_rounds{0};
  std::atomic<std::size_t> recycles{0};
  std::atomic<std::size_t> recycled_duplicates_deferred{0};
  std::vector<std::atomic<std::size_t>> lane_rounds;  // non-empty rounds
};

/// Group g's share of the schedule, on the calling thread: opens through
/// OpenSession(g), one DecideBatch per round plus one per deferred
/// duplicate, closes, resets as closes. Stops at the first broken
/// invariant (gtest failures are thread-safe).
void RunServiceGroup(DecisionService& service, const Schedule& schedule,
                     const std::vector<ReferenceSession>& reference,
                     std::size_t g, Answers& answers, Coverage& coverage) {
  const std::size_t shards = coverage.lane_rounds.size();
  const auto mine = [&](std::uint32_t s) {
    return schedule.sessions[s].group == g;
  };
  std::vector<DecisionService::SessionId> id_of(schedule.sessions.size());
  std::vector<std::size_t> next(schedule.sessions.size(), 0);
  std::vector<char> recycled(schedule.sessions.size(), 0);
  std::unordered_set<DecisionService::SessionId> ever;
  std::vector<std::uint32_t> live;
  std::size_t peak = 0, session_bytes_peak = 0;
  // Per shard, every request count a DecideBatch call sent it.
  std::vector<std::unordered_set<std::size_t>> sent(shards);
  const auto retire = [&](std::uint32_t s) {
    service.CloseSession(id_of[s]);
    std::erase(live, s);
  };

  std::vector<DecisionService::Request> requests;
  std::vector<std::pair<std::uint32_t, std::size_t>> owner;  // (s, t)
  std::vector<mdp::Action> out;
  for (std::size_t r = 0; r < schedule.rounds.size(); ++r) {
    const Round& round = schedule.rounds[r];
    for (const std::uint32_t s : round.opens) {
      if (!mine(s)) continue;
      const auto id = service.OpenSession(g);
      if (service.TagOf(g, id) == nullptr || service.StepCount(id) != 0 ||
          service.Defaulted(id)) {
        ADD_FAILURE() << "session " << s << " opened elsewhere or not fresh";
        return;
      }
      recycled[s] = !ever.insert(id).second;
      coverage.recycles += recycled[s];
      id_of[s] = id;
      live.push_back(s);
      peak = std::max(peak, live.size());
    }
    requests.clear();
    owner.clear();
    for (const std::uint32_t s : round.steps) {
      if (!mine(s)) continue;
      requests.push_back({id_of[s], &reference[s].states[next[s]]});
      owner.emplace_back(s, next[s]++);
    }
    // One decision per session per call: the later duplicates come back
    // deferred and go in again, in order, until every step is answered.
    do {
      out.assign(requests.size(), -1);
      const std::span<const std::size_t> deferred =
          service.DecideBatch(requests, out);
      std::vector<std::size_t> expected;
      std::unordered_set<DecisionService::SessionId> in_call;
      std::vector<std::size_t> per_shard(shards, 0);
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (!in_call.insert(requests[i].session).second) {
          expected.push_back(i);
        } else {
          ++per_shard[service.ShardOfSession(requests[i].session)];
        }
      }
      if (!std::equal(deferred.begin(), deferred.end(), expected.begin(),
                      expected.end())) {
        ADD_FAILURE() << "round " << r << " group " << g << " deferred "
                      << Join(deferred) << "instead of " << Join(expected);
        return;
      }
      const auto lanes = shards - static_cast<std::size_t>(std::count(
                                       per_shard.begin(), per_shard.end(), 0));
      coverage.empty_rounds += lanes == 0;
      coverage.one_shard_rounds += lanes == 1;
      for (std::size_t k = 0; k < shards; ++k) {
        coverage.lane_rounds[k] += per_shard[k] > 0;
        sent[k].insert(per_shard[k]);
      }
      std::size_t kept = 0;  // deferred requests move to the front
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto [s, t] = owner[i];
        if (kept < expected.size() && expected[kept] == i) {
          coverage.recycled_duplicates_deferred += recycled[s];
          if (out[i] != -1) {
            ADD_FAILURE() << "deferred step of session " << s << " answered";
            return;
          }
          requests[kept] = requests[i];
          owner[kept++] = owner[i];
          continue;
        }
        answers.actions[s][t] = out[i];
        answers.defaulted[s][t] = service.Defaulted(id_of[s]);
        if (service.StepCount(id_of[s]) != t + 1) {
          ADD_FAILURE() << "service counts " << service.StepCount(id_of[s])
                        << " steps for session " << s << " after step " << t;
          return;
        }
      }
      requests.resize(kept);
      owner.resize(kept);
    } while (!requests.empty());

    for (const std::uint32_t s : round.closes) {
      if (mine(s)) retire(s);
    }
    if (std::find(round.resets.begin(), round.resets.end(), g) !=
        round.resets.end()) {
      while (!live.empty()) retire(live.back());
    }
    // Freed ids are reused before fresh ones are minted, so the group's
    // table never outgrows its peak live population.
    const serve::ServiceMemoryStats stats = service.MemoryStatsOfGroup(g);
    if (stats.open_sessions != live.size() || stats.session_slots > peak) {
      ADD_FAILURE() << "round " << r << " group " << g << ": "
                    << stats.open_sessions << " open (" << live.size()
                    << " live), " << stats.session_slots << " slots (peak "
                    << peak << ")";
      return;
    }
    session_bytes_peak = std::max(session_bytes_peak, stats.SessionBytes());
  }
  // Every signal's slabs go back with their last session; what stays is
  // the id free list and the slab table.
  const std::size_t session_bytes =
      service.MemoryStatsOfGroup(g).SessionBytes();
  if (schedule.profile == Profile::kChurn &&
      session_bytes >= session_bytes_peak / 4) {
    ADD_FAILURE() << "group " << g << " kept " << session_bytes
                  << " session bytes after a mass close (peak "
                  << session_bytes_peak << ")";
  }
  if (schedule.profile != Profile::kTileEdges) return;
  for (std::size_t k = 0; k < shards; ++k) {
    if (DecisionService::GroupOfShard(k, shards, schedule.groups) != g) {
      continue;
    }
    for (const std::size_t count : kTileEdgeRequests) {
      if (!sent[k].contains(count)) {
        ADD_FAILURE() << "shard " << k << " never got a round of " << count
                      << " requests";
      }
    }
  }
}

Answers RunService(const ServeWorld& w, const Schedule& schedule,
                   const std::vector<ReferenceSession>& reference,
                   serve::Signal signal, core::DefaultingMode mode) {
  const std::size_t groups = schedule.groups;
  const bool churn = schedule.profile == Profile::kChurn;
  serve::DecisionServiceConfig config;
  config.shard_count = schedule.shards;
  config.submitter_count = groups;
  DecisionService service(ModelFor(w, signal, mode), config);

  Answers answers(schedule);
  Coverage coverage(config.shard_count);
  const auto run = [&](std::size_t g) {
    try {
      RunServiceGroup(service, schedule, reference, g, answers, coverage);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "group " << g << ": " << e.what();
    }
  };
  {
    std::vector<std::jthread> threads;  // joined at the end of the block
    for (std::size_t g = 1; g < groups; ++g) threads.emplace_back(run, g);
    run(0);
  }
  EXPECT_EQ(service.ActiveSessionCount(), 0u);
  EXPECT_EQ(service.MemoryStats().open_sessions, 0u);

  if (schedule.profile == Profile::kSparse) {
    EXPECT_GT(coverage.empty_rounds.load(), 0u);
    EXPECT_GT(coverage.one_shard_rounds.load(), 0u);
    std::size_t busiest = 0;
    for (const auto& lane : coverage.lane_rounds) {
      busiest = std::max(busiest, lane.load());
    }
    EXPECT_GE(busiest, kBusyLaneRounds);
  }
  if (churn) {
    EXPECT_GE(coverage.recycles.load(), kChurnRecycles);
    EXPECT_GT(coverage.recycled_duplicates_deferred.load(), 0u);
  }
  return answers;
}

Answers RunWire(const ServeWorld& w, const Schedule& schedule,
                const std::vector<ReferenceSession>& reference,
                serve::Signal signal, core::DefaultingMode mode) {
  const std::size_t edges = schedule.groups;
  net::NetServerConfig config;
  config.edge_threads = edges;
  config.service.shard_count = schedule.shards;
  ServerRunner server(ModelFor(w, signal, mode), config);
  std::vector<std::unique_ptr<net::Client>> home(edges);  // on edge g
  for (auto& client : home) client = Connect(server.Port());

  Answers answers(schedule);
  std::vector<std::uint64_t> wire_id(schedule.sessions.size());
  std::vector<std::size_t> next(schedule.sessions.size(), 0);
  std::vector<std::pair<std::uint32_t, std::size_t>> owner;  // by request id
  // Sends `kind`'s requests of the round on each group's connection, then
  // reads each group's replies; every reply must be kOk.
  const auto exchange = [&](const std::vector<std::uint32_t>& sessions,
                            net::MsgType kind) {
    owner.clear();
    std::vector<std::size_t> sent(edges, 0);
    for (const std::uint32_t s : sessions) {
      const std::size_t g = schedule.sessions[s].group;
      const std::uint64_t rid = owner.size();
      net::Client& c = *home[g];
      if (kind == net::MsgType::kOpenSession) {
        c.SendOpen(rid);
      } else if (kind == net::MsgType::kCloseSession) {
        c.SendClose(rid, wire_id[s]);
      } else {
        c.SendStep(rid, wire_id[s], reference[s].states[next[s]]);
      }
      owner.emplace_back(s, kind == net::MsgType::kStep ? next[s]++ : 0);
      ++sent[g];
    }
    for (const auto& c : home) c->Flush();
    for (std::size_t g = 0; g < edges; ++g) {
      for (std::size_t k = 0; k < sent[g]; ++k) {
        net::Reply reply;
        ASSERT_TRUE(home[g]->ReadReply(reply)) << "edge " << g << " hung up";
        ASSERT_EQ(reply.status, net::Status::kOk)
            << "request " << reply.request_id << " on edge " << g;
        ASSERT_LT(reply.request_id, owner.size());
        const auto [s, t] = owner[reply.request_id];
        if (kind == net::MsgType::kOpenSession) {
          wire_id[s] = reply.session_id;
        } else if (kind == net::MsgType::kStep) {
          EXPECT_EQ(reply.session_id, wire_id[s]);
          answers.actions[s][t] = reply.action;
          answers.defaulted[s][t] = reply.Defaulted();
        }
      }
    }
  };
  for (const Round& round : schedule.rounds) {
    for (const auto& [sessions, kind] :
         {std::pair{&round.opens, net::MsgType::kOpenSession},
          std::pair{&round.steps, net::MsgType::kStep},
          std::pair{&round.closes, net::MsgType::kCloseSession}}) {
      exchange(*sessions, kind);
      if (::testing::Test::HasFatalFailure()) return answers;
    }
    for (const std::uint32_t g : round.resets) {
      // SO_LINGER {on, 0}: close() sends RST; the edge reaps the sessions.
      linger hard{1, 0};
      ::setsockopt(home[g]->fd(), SOL_SOCKET, SO_LINGER, &hard, sizeof hard);
      home[g]->Close();
      // Once edge g reaps the connection it alone has the fewest, so the
      // reconnect lands on it.
      for (std::size_t polls = 0;
           edges > 1 && home[(g + 1) % edges]->Stats().connections == edges;
           ++polls) {
        if (polls == 100000) {
          ADD_FAILURE() << "edge " << g << " never reaped its connection";
          return answers;
        }
      }
      home[g] = Connect(server.Port());
    }
  }
  std::size_t steps = 0;
  for (const SessionScript& script : schedule.sessions) steps += script.steps;
  const net::ServerStats stats = home[0]->Stats();
  EXPECT_EQ(stats.decided, steps);
  EXPECT_EQ(stats.busy + stats.rejected_opens + stats.errors, 0u);
  return answers;
}

/// Reports the first step where `path` leaves the reference, if any.
void ExpectSameAnswers(const char* path, std::uint32_t s,
                       const ReferenceSession& ref,
                       const std::vector<char>& ref_flags,
                       const std::vector<mdp::Action>& actions,
                       const std::vector<char>& flags) {
  for (std::size_t t = 0; t < flags.size(); ++t) {
    if (actions[t] != ref.actions[t] || flags[t] != ref_flags[t]) {
      ADD_FAILURE() << path << " diverges on session " << s << " at step "
                    << t << ": action " << actions[t] << " (reference "
                    << ref.actions[t] << "); defaults at "
                    << Join(DefaultSteps(flags)) << "(reference "
                    << Join(DefaultSteps(ref_flags)) << ")";
      return;
    }
  }
}

}  // namespace

std::vector<ReferenceSession> RunReference(
    const ServeWorld& w, std::span<const SessionScript> scripts,
    serve::Signal signal, core::DefaultingMode mode) {
  const core::SafeAgentConfig config = ConfigFor(w, signal, mode);
  const auto learned = std::make_shared<policies::PensievePolicy>(
      w.agents.front(), policies::ActionSelection::kGreedy, 0);
  const auto fallback =
      std::make_shared<policies::BufferBasedPolicy>(w.video, w.layout);
  // The ensemble estimators keep no per-session state; U_S gets a fresh
  // detector per session.
  const auto ensemble = signal == serve::Signal::kNovelty
                            ? nullptr
                            : MakeEstimator(w, signal);
  std::vector<ReferenceSession> sessions(scripts.size());
  for (std::size_t s = 0; s < scripts.size(); ++s) {
    ReferenceSession& ref = sessions[s];
    core::SafeAgent agent(
        learned, fallback,
        std::make_shared<RecordingEstimator>(
            ensemble ? ensemble : MakeEstimator(w, signal), ref.scores),
        config);
    const traces::Trace trace = TraceOf(w, scripts[s]);
    abr::AbrEnvironment env(w.video, {});
    env.SetFixedTrace(trace);  // keeps a pointer
    mdp::State state = env.Reset();
    for (std::size_t t = 0; t < scripts[s].steps; ++t) {
      if (t == scripts[s].extreme_step) {
        state = ExtremeState(state.size(), scripts[s].extreme_value,
                             scripts[s].extreme_alternates);
      }
      ref.states.push_back(state);
      ref.actions.push_back(agent.SelectAction(state));
      ref.defaulted.push_back(agent.Defaulted());
      mdp::StepResult result = env.Step(ref.actions.back());
      state = std::move(result.next_state);
      if (result.done && t + 1 < scripts[s].steps) {
        ADD_FAILURE() << "session " << s << " asks for steps past its episode";
        break;
      }
    }
    ref.default_step = agent.DefaultStep();
  }
  return sessions;
}

void CheckSchedule(const ServeWorld& w, const Schedule& schedule,
                   serve::Signal signal, core::DefaultingMode mode) {
  const core::SafeAgentConfig config = ConfigFor(w, signal, mode);
  const std::vector<ReferenceSession> reference =
      RunReference(w, schedule.sessions, signal, mode);
  const Answers service = RunService(w, schedule, reference, signal, mode);
  const Answers wire = RunWire(w, schedule, reference, signal, mode);

  std::size_t defaulted = 0, mid_session = 0, poisoned = 0;
  for (std::uint32_t s = 0; s < reference.size(); ++s) {
    const ReferenceSession& ref = reference[s];
    ReferenceMachine machine(config);
    std::vector<char> flags;
    for (const double score : ref.scores) {
      machine.Step(score);
      flags.push_back(machine.defaulted);
    }
    // A kPermanent session is not scored once it has defaulted.
    flags.resize(ref.actions.size(), machine.defaulted);
    const std::vector<std::size_t> defaults = DefaultSteps(flags);
    // The SafeAgent is checked against the trigger recomputed from its
    // own scores, then the service and the wire against the SafeAgent.
    ExpectSameAnswers("SafeAgent", s, ref, flags, ref.actions, ref.defaulted);
    if (!defaults.empty()) {
      EXPECT_EQ(ref.default_step, defaults.back());
    }
    ExpectSameAnswers("DecisionService", s, ref, flags, service.actions[s],
                      service.defaulted[s]);
    ExpectSameAnswers("NetServer", s, ref, flags, wire.actions[s],
                      wire.defaulted[s]);
    defaulted += !defaults.empty();
    mid_session += !defaults.empty() && defaults.front() > 0 &&
                   defaults.front() + 1 < flags.size();
    // Fail closed, checked against the contract rather than the window
    // routine: a score whose square is not finite keeps every step it
    // spends in the window (k >= l of them) uncertain, so the session is
    // defaulted l - 1 steps later. (Scores stop at a kPermanent default,
    // so scores[t] is step t's.)
    for (std::size_t t = 0; t < ref.scores.size(); ++t) {
      if (std::isfinite(ref.scores[t] * ref.scores[t])) continue;
      ++poisoned;
      const std::size_t by =
          std::min(t + config.trigger.l - 1, flags.size() - 1);
      EXPECT_TRUE(flags[by]) << "session " << s << " scored "
                             << ref.scores[t] << " at step " << t
                             << " and had not defaulted by step " << by;
    }
  }
  if (schedule.profile == Profile::kExtreme &&
      signal != serve::Signal::kNovelty) {
    EXPECT_GE(poisoned, 1u) << "no extreme state poisoned a score";
  }
  // The comparison means something only if the trigger fires somewhere:
  // some sessions default, at least one mid-session, others never do.
  EXPECT_GE(defaulted, 1u);
  EXPECT_LT(defaulted, reference.size());
  EXPECT_GE(mid_session, 1u);
}

void BoundReplyWait(const net::Client& client) {
  timeval timeout{};
  timeout.tv_sec = 10;
  ASSERT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof timeout),
            0);
}

std::unique_ptr<net::Client> Connect(std::uint16_t port) {
  auto client = std::make_unique<net::Client>();
  client->Connect("127.0.0.1", port);
  BoundReplyWait(*client);
  return client;
}

}  // namespace osap::testing
