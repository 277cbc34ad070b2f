// The oracle's seeded schedule generator: which sessions open, step,
// close or lose their connection in which round, and which traces they
// stream. A schedule says nothing about answers - the checker
// (defaulting_oracle.h) runs it through every decision path and compares.
//
// Each session streams one trace of ServeWorld::traces: in-distribution
// (an even index), out-of-distribution (an odd index), or the ID trace
// spliced onto an OOD one mid-session. In the extreme profile some
// sessions also see one finite but extreme state mid-session. Sessions
// are spread round-robin over the schedule's groups (one service shard
// and one network edge each). Within a round, per group: opens first, then the
// steps in listed order (a session listed k times pipelines its next k
// steps; all but the first wait for later decision rounds), then closes,
// then resets (the group's connection drops, ending its live sessions
// without a CLOSE).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/ensemble_model.h"

namespace osap::testing {

enum class Profile {
  kDense,   // every live session every round, in reverse session order
  kSparse,  // 0-3 random sessions a round, every 150th round all of them
  kChurn,   // 1000 live, 250 closes and opens a round: >= 10k recycles
  kBurst,   // one open-loop round pipelining every step of every session
  kExtreme,  // dense; sessions not ID throughout see one extreme state
  kTileEdges,  // every group's rounds cycle through kTileEdgeRequests
};

/// The requests per group a kTileEdges round sends, in turn: both sides
/// of one row tile, and three full tiles plus a partial one.
inline constexpr std::array<std::size_t, 4> kTileEdgeRequests = {
    core::kRowTile - 1, core::kRowTile, core::kRowTile + 1,
    3 * core::kRowTile + 5};

/// SessionScript::switch_sample for a session that stays in-distribution.
inline constexpr std::size_t kNoSwitch =
    std::numeric_limits<std::size_t>::max();

struct SessionScript {
  std::size_t group = 0;
  std::size_t id_trace = 0;   // even index into ServeWorld::traces
  std::size_t ood_trace = 1;  // odd index
  /// ID trace samples before the OOD trace takes over: 0 streams the OOD
  /// trace from the start, kNoSwitch never switches.
  std::size_t switch_sample = kNoSwitch;
  std::size_t steps = 0;  // decisions the session asks for
  /// The step whose state is replaced by ExtremeState(dim,
  /// extreme_value, extreme_alternates) (kNoSwitch: none).
  std::size_t extreme_step = kNoSwitch;
  double extreme_value = 0.0;
  bool extreme_alternates = false;
};

/// A finite state no trace produces: `dim` copies of v, or values
/// alternating +v, -v.
std::vector<double> ExtremeState(std::size_t dim, double v, bool alternate);

struct Round {
  std::vector<std::uint32_t> opens;   // sessions
  std::vector<std::uint32_t> steps;   // sessions, one entry per step
  std::vector<std::uint32_t> closes;  // sessions
  std::vector<std::uint32_t> resets;  // groups
};

struct Schedule {
  Profile profile = Profile::kDense;
  std::uint64_t seed = 0;
  /// Submitters: service shards on their own threads, and edges.
  std::size_t groups = 1;
  std::vector<SessionScript> sessions;
  std::vector<Round> rounds;
};

/// A deterministic function of its arguments. `trace_count` is the size
/// of the world's trace pool, `max_steps` the episode length (no session
/// steps past it).
Schedule MakeSchedule(Profile profile, std::uint64_t seed, std::size_t groups,
                      std::size_t trace_count, std::size_t max_steps);

}  // namespace osap::testing
