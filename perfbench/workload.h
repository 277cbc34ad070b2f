// The benchmark's workload model, shared by the wire driver and the
// in-process replay so both walk exactly the same viewers, sessions and
// decision schedule.
//
// A workload is a population of closed-loop ABR viewers: viewer i streams
// dataset i % 6 (the deployment is trained on Gamma(2,2); the other five
// are out of distribution), the server's action drives its
// AbrEnvironment, and a session ends after `session_len` chunks, when the
// viewer closes it and reopens on its dataset's next test trace.
//
// Everything else comes from the seed: the rotation of each dataset's
// test traces over its viewers, each viewer's phase inside the arrival
// period, and how many steps it is
// pre-aged before the measured phase (so session completions, and with
// them CLOSE/OPEN traffic, are spread evenly over the phase instead of
// arriving in one wave). The measured fixed-rate phase gives every
// viewer `Slots()` slots, one every `PeriodSeconds()` starting at its
// phase: a slot carries a STEP, or CLOSE + OPEN when the viewer's
// session has just ended. The slot count is fixed by the workload, not by
// timing, so the set of sessions completed in the phase - and their QoE -
// is a pure function of the seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "abr/abr_environment.h"
#include "core/workbench.h"
#include "mdp/types.h"
#include "util/arg_parser.h"

namespace osap::perfbench {

struct Spec {
  std::string signal = "us";    // us | upi | uv (osap_serve's names)
  std::size_t viewers = 1000;   // population (open sessions)
  std::size_t session_len = 48; // chunks per session
  double rate = 5000.0;         // fixed offered rate, decisions/s
  double fixed_seconds = 6.0;   // length of the fixed-rate phase
  double closed_seconds = 2.0;  // length of the closed-loop phase
  std::size_t shards = 2;       // server shard lanes
  std::size_t seed = 1;

  /// Registers the shared options on `parser`.
  void AddOptions(util::ArgParser& parser);
  /// Seconds between two slots of one viewer (viewers / rate).
  double PeriodSeconds() const;
  /// Slots every viewer gets in the fixed-rate phase.
  std::size_t Slots() const;
};

/// The seeded per-viewer plan.
struct ViewerPlan {
  std::size_t dataset = 0;      // index into traces::AllDatasetIds()
  std::size_t first_trace = 0;  // test-trace cursor of the first session
  double phase_seconds = 0.0;   // offset of slot 0 inside the period
  std::size_t warm_steps = 0;   // pre-aging steps, < session_len
};

std::vector<ViewerPlan> MakePlans(const Spec& spec);

/// Viewers ordered by phase: the global order in which slots fall due
/// (slot k of every viewer, in this order, then slot k + 1, ...).
std::vector<std::size_t> PhaseOrder(const std::vector<ViewerPlan>& plans);

/// One session that ran to its end, with its QoE (summed reward).
struct CompletedSession {
  std::size_t viewer = 0;
  std::size_t ordinal = 0;  // the viewer's n-th session of the run
  std::size_t steps = 0;
  double qoe = 0.0;
  std::size_t dataset = 0;  // index into traces::AllDatasetIds()
  std::size_t trace = 0;    // index into that dataset's test split
};

/// True for the deployment's training distribution, Gamma(2,2).
bool InDistribution(std::size_t dataset);

/// The population's environments. Not thread-safe; callers that split
/// the population across threads touch disjoint viewers only.
class Population {
 public:
  Population(core::Workbench& bench, const Spec& spec,
             std::vector<ViewerPlan> plans);

  std::size_t Size() const { return viewers_.size(); }
  const ViewerPlan& Plan(std::size_t v) const { return plans_[v]; }
  const std::vector<ViewerPlan>& Plans() const { return plans_; }

  /// Starts viewer v's next session on its dataset's next test trace.
  void Begin(std::size_t v);
  /// Rewinds every viewer to its plan and begins its first session, so a
  /// repeated phase sees exactly the same inputs.
  void Restart();
  /// The state the viewer presents for its next decision.
  const mdp::State& State(std::size_t v) const { return viewers_[v].state; }
  /// True once the viewer's current session has ended (reopen due).
  bool SessionOver(std::size_t v) const { return viewers_[v].over; }
  /// Applies the server's action. Returns true when this step ended the
  /// session; `done` then receives its record.
  bool Apply(std::size_t v, mdp::Action action, CompletedSession* done);

 private:
  struct Viewer {
    explicit Viewer(abr::AbrEnvironment e) : env(std::move(e)) {}
    abr::AbrEnvironment env;
    mdp::State state;
    std::size_t next_trace = 0;
    std::size_t trace = 0;  // the current session's trace
    std::size_t steps = 0;
    std::size_t sessions = 0;
    double qoe = 0.0;
    bool over = false;
  };

  core::Workbench& bench_;
  std::size_t session_len_;
  std::vector<ViewerPlan> plans_;
  std::vector<Viewer> viewers_;
};

/// The Workbench configuration every benchmark process uses: the shipped
/// defaults with the artifact cache in ./osap_cache (so the server, the
/// replay and the preparation step share one cache key).
core::WorkbenchConfig BenchWorkbenchConfig();

/// Monotonic clock in nanoseconds (CLOCK_MONOTONIC, comparable across
/// processes on one host).
std::int64_t NowNs();

/// Nearest-rank quantile of an unsorted sample (sorts in place); 0 when
/// empty.
double Quantile(std::vector<double>& values, double q);

}  // namespace osap::perfbench
