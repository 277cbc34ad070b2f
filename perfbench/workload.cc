#include "workload.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "traces/dataset.h"

namespace osap::perfbench {

namespace {

/// SplitMix64: a self-contained seeded stream, so the benchmark's inputs
/// do not move when the library's own RNG changes.
struct SplitMix {
  std::uint64_t s;
  std::uint64_t Next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
};

}  // namespace

void Spec::AddOptions(util::ArgParser& parser) {
  parser.AddOption("--signal", "NAME", "safety signal: us | upi | uv",
                   &signal);
  parser.AddOption("--viewers", "N", "viewer population", &viewers);
  parser.AddOption("--session-len", "N", "chunks per session", &session_len);
  parser.AddOption("--rate", "DPS", "fixed offered rate, decisions/s", &rate);
  parser.AddOption("--fixed-seconds", "S", "fixed-rate phase length",
                   &fixed_seconds);
  parser.AddOption("--closed-seconds", "S", "closed-loop phase length",
                   &closed_seconds);
  parser.AddOption("--shards", "N", "server shard lanes", &shards);
  parser.AddOption("--seed", "N", "input seed", &seed);
}

double Spec::PeriodSeconds() const {
  return static_cast<double>(viewers) / rate;
}

std::size_t Spec::Slots() const {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(fixed_seconds / PeriodSeconds())));
}

std::vector<ViewerPlan> MakePlans(const Spec& spec) {
  SplitMix rng{spec.seed * 0x2545f4914f6cdd1dull + 17};
  const std::size_t datasets = traces::AllDatasetIds().size();
  std::vector<ViewerPlan> plans(spec.viewers);
  for (std::size_t v = 0; v < spec.viewers; ++v) {
    ViewerPlan& p = plans[v];
    p.dataset = v % datasets;
    // Viewers of a dataset walk its test traces in rotation, so every
    // seed serves an even mix of traces.
    p.first_trace = v / datasets + spec.seed;
    p.phase_seconds = rng.Uniform() * spec.PeriodSeconds();
    p.warm_steps = rng.Next() % spec.session_len;
  }
  return plans;
}

std::vector<std::size_t> PhaseOrder(const std::vector<ViewerPlan>& plans) {
  std::vector<std::size_t> order(plans.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return plans[a].phase_seconds < plans[b].phase_seconds;
                   });
  return order;
}

Population::Population(core::Workbench& bench, const Spec& spec,
                       std::vector<ViewerPlan> plans)
    : bench_(bench), session_len_(spec.session_len), plans_(std::move(plans)) {
  viewers_.reserve(plans_.size());
  for (std::size_t v = 0; v < plans_.size(); ++v) {
    viewers_.emplace_back(bench_.MakeEvalEnvironment());
  }
  Restart();
}

void Population::Restart() {
  const std::vector<traces::DatasetId> ids = traces::AllDatasetIds();
  for (std::size_t v = 0; v < plans_.size(); ++v) {
    const ViewerPlan& p = plans_[v];
    Viewer& w = viewers_[v];
    w.next_trace =
        p.first_trace % bench_.DatasetFor(ids[p.dataset]).test.size();
    w.sessions = 0;
    Begin(v);
  }
}

void Population::Begin(std::size_t v) {
  Viewer& w = viewers_[v];
  const auto& tests =
      bench_.DatasetFor(traces::AllDatasetIds()[plans_[v].dataset]).test;
  w.env.SetFixedTrace(tests[w.next_trace]);
  w.trace = w.next_trace;
  w.next_trace = (w.next_trace + 1) % tests.size();
  w.state = w.env.Reset();
  w.steps = 0;
  w.qoe = 0.0;
  w.over = false;
}

bool Population::Apply(std::size_t v, mdp::Action action,
                       CompletedSession* done) {
  Viewer& w = viewers_[v];
  mdp::StepResult r = w.env.Step(action);
  w.qoe += r.reward;
  ++w.steps;
  if (!r.done && w.steps < session_len_) {
    w.state = std::move(r.next_state);
    return false;
  }
  w.over = true;
  if (done != nullptr) {
    done->viewer = v;
    done->ordinal = w.sessions;
    done->steps = w.steps;
    done->qoe = w.qoe;
    done->dataset = plans_[v].dataset;
    done->trace = w.trace;
  }
  ++w.sessions;
  return true;
}

bool InDistribution(std::size_t dataset) {
  return traces::AllDatasetIds()[dataset] == traces::DatasetId::kGamma22;
}

core::WorkbenchConfig BenchWorkbenchConfig() {
  core::WorkbenchConfig cfg;
  cfg.use_cache = true;
  cfg.cache_dir = "osap_cache";
  return cfg;
}

std::int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

}  // namespace osap::perfbench
