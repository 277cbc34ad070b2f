#include "testing/schedule.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <tuple>
#include <utility>

#include "serve/decision_service.h"
#include "util/rng.h"

namespace osap::testing {
namespace {

constexpr std::size_t kSessionsPerGroup = 6;

/// Builds a schedule round by round, tracking the live sessions and the
/// steps each may still take.
struct Builder {
  Builder(Profile profile, std::uint64_t seed, std::size_t groups,
          std::size_t trace_count, std::size_t steps)
      : rng(seed), traces(trace_count), max_steps(steps) {
    out.profile = profile;
    out.seed = seed;
    out.groups = groups;
    out.shards = groups + 2;
  }

  /// Opens a session in `round`: by index, a third stay ID, a third are
  /// OOD throughout and a third switch from ID to OOD mid-session.
  void Open(Round& round, std::size_t group) {
    const auto s = static_cast<std::uint32_t>(out.sessions.size());
    SessionScript script;
    script.group = group;
    script.id_trace = 2 * rng.UniformInt(traces / 2);
    script.ood_trace = 2 * rng.UniformInt(traces / 2) + 1;
    script.switch_sample =
        s % 3 == 0 ? kNoSwitch : s % 3 == 1 ? 0 : 40 + rng.UniformInt(80);
    out.sessions.push_back(script);
    left.push_back(max_steps);
    round.opens.push_back(s);
    live.push_back(s);
  }
  void OpenRoundRobin(Round& round, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      Open(round, out.sessions.size() % out.groups);
    }
  }

  /// Lists `s`'s next step; with probability 1/dup_odds (and a step to
  /// spare) also its following one, pipelined.
  void Step(Round& round, std::uint32_t s, std::uint64_t dup_odds = 0) {
    const bool dup =
        dup_odds > 0 && left[s] >= 2 && rng.UniformInt(dup_odds) == 0;
    for (int k = 0; k <= dup && left[s] > 0; ++k) {
      round.steps.push_back(s);
      ++out.sessions[s].steps;
      --left[s];
    }
  }

  /// Closes every live session with no steps left, plus `extra` random
  /// others (all of them when `extra` covers the population). With
  /// `stay_every` > 0, every stay_every-th session is never an extra: it
  /// watches to the end.
  void CloseFinished(Round& round, std::size_t extra = 0,
                     std::size_t stay_every = 0) {
    std::vector<std::uint32_t> keep, stay;
    for (const std::uint32_t s : live) {
      if (left[s] == 0) {
        round.closes.push_back(s);
      } else {
        (stay_every > 0 && s % stay_every == 0 ? stay : keep).push_back(s);
      }
    }
    rng.Shuffle(keep);
    for (; extra > 0 && !keep.empty(); --extra) {
      round.closes.push_back(keep.back());
      keep.pop_back();
    }
    keep.insert(keep.end(), stay.begin(), stay.end());
    std::sort(keep.begin(), keep.end());
    live = std::move(keep);
  }

  /// Drops group g's connection after the round; returns how many live
  /// sessions it ended.
  std::size_t Reset(Round& round, std::size_t g) {
    round.resets.push_back(static_cast<std::uint32_t>(g));
    return std::erase_if(
        live, [&](std::uint32_t s) { return out.sessions[s].group == g; });
  }

  Rng rng;
  std::size_t traces;
  std::size_t max_steps;
  Schedule out;
  std::vector<std::size_t> left;     // steps each session may still take
  std::vector<std::uint32_t> live;   // ascending
};

void Dense(Builder& b) {
  Round round;
  b.OpenRoundRobin(round, kSessionsPerGroup * b.out.groups);
  for (; !b.live.empty(); round = {}) {
    for (auto it = b.live.rbegin(); it != b.live.rend(); ++it) {
      b.Step(round, *it);
    }
    b.CloseFinished(round);
    b.out.rounds.push_back(std::move(round));
  }
}

void Sparse(Builder& b) {
  constexpr std::size_t kResetRound = 60;
  Round round;
  b.OpenRoundRobin(round, kSessionsPerGroup * b.out.groups);
  std::size_t reopen = 0, reopen_group = 0;
  for (std::size_t n = 0; !b.live.empty() || reopen > 0; ++n, round = {}) {
    for (; reopen > 0; --reopen) b.Open(round, reopen_group);
    std::vector<std::uint32_t> chosen = b.live;
    if (n % 150 != 149) {
      b.rng.Shuffle(chosen);
      chosen.resize(std::min<std::size_t>(chosen.size(), b.rng.UniformInt(4)));
    }
    for (const std::uint32_t s : chosen) b.Step(round, s, 10);
    b.CloseFinished(round);
    if (n == kResetRound) {
      reopen_group = b.rng.UniformInt(b.out.groups);
      reopen = b.Reset(round, reopen_group);
    }
    b.out.rounds.push_back(std::move(round));
  }
}

void Churn(Builder& b) {
  constexpr std::size_t kPopulation = 1000;
  constexpr std::size_t kChurn = 250;
  constexpr std::size_t kRounds = 42;
  for (std::size_t n = 0; n < kRounds; ++n) {
    Round round;
    b.OpenRoundRobin(round, kPopulation - b.live.size());
    for (const std::uint32_t s : b.live) b.Step(round, s, 50);
    // One viewer in 64 watches to the end; the last round is the mass
    // close.
    if (n + 1 == kRounds) {
      b.CloseFinished(round, kPopulation);
    } else {
      b.CloseFinished(round, kChurn, 64);
    }
    if (n == 5) b.Reset(round, b.rng.UniformInt(b.out.groups));
    b.out.rounds.push_back(std::move(round));
  }
}

/// Dense, and the state of every session that is not ID throughout
/// becomes, at one step in [4, 16), in turn: +-1e154, +-1e300 or
/// +-DBL_MAX alternating, all +DBL_MAX or all -DBL_MAX.
void Extreme(Builder& b) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr std::pair<double, bool> kStates[] = {
      {1e154, true}, {1e300, true}, {kMax, true}, {kMax, false},
      {-kMax, false}};
  Dense(b);
  std::size_t next = 0;
  for (SessionScript& script : b.out.sessions) {
    if (script.switch_sample == kNoSwitch) continue;
    script.extreme_step = 4 + b.rng.UniformInt(12);
    std::tie(script.extreme_value, script.extreme_alternates) =
        kStates[next++ % std::size(kStates)];
  }
}

void Burst(Builder& b) {
  Round opens, burst;
  b.OpenRoundRobin(opens, kSessionsPerGroup * b.out.groups);
  for (std::size_t t = 0; t < b.max_steps; ++t) {
    for (const std::uint32_t s : b.live) b.Step(burst, s);
  }
  b.CloseFinished(burst);
  b.out.rounds = {std::move(opens), std::move(burst)};
}

/// Each group opens kTileEdgeRequests.back() sessions per shard; round r
/// steps the group's first kTileEdgeRequests[r % 4] * width sessions in
/// opening order. A group hands its n-th fresh id to its shard
/// n % width, so every shard of the group gets exactly that many.
void TileEdges(Builder& b) {
  std::vector<std::vector<std::uint32_t>> opened(b.out.groups);
  Round round;
  for (std::size_t g = 0; g < b.out.groups; ++g) {
    std::size_t width = 0;
    for (std::size_t s = 0; s < b.out.shards; ++s) {
      width += serve::DecisionService::GroupOfShard(s, b.out.shards,
                                                    b.out.groups) == g;
    }
    for (std::size_t i = 0; i < kTileEdgeRequests.back() * width; ++i) {
      opened[g].push_back(static_cast<std::uint32_t>(b.out.sessions.size()));
      b.Open(round, g);
    }
  }
  for (std::size_t r = 0; r < b.max_steps; ++r, round = {}) {
    for (const std::vector<std::uint32_t>& sessions : opened) {
      const std::size_t width = sessions.size() / kTileEdgeRequests.back();
      for (std::size_t i = 0;
           i < kTileEdgeRequests[r % kTileEdgeRequests.size()] * width; ++i) {
        b.Step(round, sessions[i]);
      }
    }
    if (r + 1 == b.max_steps) b.CloseFinished(round, b.live.size());
    b.out.rounds.push_back(std::move(round));
  }
}

}  // namespace

std::vector<double> ExtremeState(std::size_t dim, double v, bool alternate) {
  std::vector<double> state(dim, v);
  if (alternate) {
    for (std::size_t i = 1; i < dim; i += 2) state[i] = -v;
  }
  return state;
}

Schedule MakeSchedule(Profile profile, std::uint64_t seed, std::size_t groups,
                      std::size_t trace_count, std::size_t max_steps) {
  Builder b(profile, seed, groups, trace_count, max_steps);
  switch (profile) {
    case Profile::kDense: Dense(b); break;
    case Profile::kSparse: Sparse(b); break;
    case Profile::kChurn: Churn(b); break;
    case Profile::kBurst: Burst(b); break;
    case Profile::kExtreme: Extreme(b); break;
    case Profile::kTileEdges: TileEdges(b); break;
  }
  return std::move(b.out);
}

}  // namespace osap::testing
