// JSON sidecar output for the google-benchmark micro-benches.
//
// Each micro-bench binary prints the usual console table AND drops a
// machine-readable `BENCH_<name>.json` next to its working directory: a
// flat {"benchmark name": nanoseconds_per_op} map that scripts can diff
// across commits without parsing console output. Custom counters are
// emitted as extra `"name:counter"` entries - except rate counters
// (`*_per_s`), which are console-only: every sidecar entry must be
// lower-is-better so bench_diff.py's regression direction stays uniform.
// Under --benchmark_repetitions=N (N > 1) each benchmark's entries are its
// median aggregate across the repetitions, under the plain benchmark name.
// The OSAP_BENCH_JSON environment variable overrides the sidecar path, so
// several ctest gates can run one binary with different filters without
// clobbering each other's baselines.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/check.h"

namespace osap::bench {

/// Console reporter that also accumulates per-benchmark timings and, on
/// Finalize, writes them as a flat JSON object (name -> ns/op, plus
/// name:counter -> value for non-rate counters). The map stays
/// one-entry-per-benchmark: without repetitions that entry is the single
/// iteration row; with --benchmark_repetitions > 1 it is the median
/// aggregate (keyed by the plain name, without the "_median" suffix), and
/// the per-repetition rows and the other aggregates are left out.
class JsonSidecarReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonSidecarReporter(std::string path) : path_(std::move(path)) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (!Recorded(run)) continue;
      const std::string name = run.run_name.str();
      // An aggregate's accumulated time is rescaled so that dividing by
      // its iterations (the repetition count) yields the per-op statistic.
      const double ns_per_op =
          run.iterations == 0
              ? 0.0
              : run.real_accumulated_time /
                    static_cast<double>(run.iterations) * 1e9;
      entries_.emplace_back(name, ns_per_op);
      for (const auto& [counter_name, counter] : run.counters) {
        // Rates invert the bigger-is-worse convention the diff gates
        // assume; keep them out of the gated sidecar.
        if (std::string_view(counter_name).ends_with("_per_s")) continue;
        entries_.emplace_back(name + ":" + counter_name,
                              static_cast<double>(counter.value));
      }
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    std::FILE* f = std::fopen(path_.c_str(), "w");
    OSAP_CHECK_MSG(f != nullptr, "JsonSidecarReporter: cannot open output");
    std::fprintf(f, "{\n");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %.3f%s\n", Escaped(entries_[i].first).c_str(),
                   entries_[i].second, i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu entries, ns/op)\n", path_.c_str(),
                entries_.size());
  }

 private:
  /// The one row per benchmark the sidecar keeps.
  static bool Recorded(const Run& run) {
    if (run.error_occurred) return false;
    if (run.repetitions > 1) {
      return run.run_type == Run::RT_Aggregate &&
             run.aggregate_name == "median";
    }
    return run.run_type == Run::RT_Iteration;
  }

  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string path_;
  std::vector<std::pair<std::string, double>> entries_;
};

/// Shared main() body: run all registered benchmarks through the sidecar
/// reporter. Use instead of BENCHMARK_MAIN(). The OSAP_BENCH_JSON
/// environment variable, when set, overrides `json_path`.
inline int RunWithJsonSidecar(int argc, char** argv,
                              const std::string& json_path) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const char* override_path = std::getenv("OSAP_BENCH_JSON");
  JsonSidecarReporter reporter(override_path != nullptr ? override_path
                                                        : json_path);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

}  // namespace osap::bench

/// Drop-in replacement for BENCHMARK_MAIN() that also writes `json_path`.
#define OSAP_BENCHMARK_MAIN_WITH_JSON(json_path)                        \
  int main(int argc, char** argv) {                                     \
    return osap::bench::RunWithJsonSidecar(argc, argv, (json_path));    \
  }
