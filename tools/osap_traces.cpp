// osap_traces: generate and export the paper's datasets.
//
// Usage:
//   osap_traces list
//   osap_traces stats   <dataset> [count] [duration_s] [seed]
//   osap_traces export  <dataset> <out_dir> [count] [duration_s] [seed]
//   osap_traces mahimahi <dataset> <out_dir> [count] [duration_s] [seed]
//
// `export` writes the train/validation/test splits as CSV trace files
// (readable back with traces::ReadTraceDirectory); `mahimahi` writes
// MahiMahi packet-opportunity files usable with the real link emulator.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "traces/dataset.h"
#include "traces/trace_io.h"
#include "util/arg_parser.h"
#include "util/stats.h"

using namespace osap;

namespace {

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: osap_traces <command> [args]\n"
               "  osap_traces list\n"
               "  osap_traces stats    <dataset> [count] [duration] [seed]\n"
               "  osap_traces export   <dataset> <dir> [count] [duration] "
               "[seed]\n"
               "  osap_traces mahimahi <dataset> <dir> [count] [duration] "
               "[seed]\n"
               "(per-command --help available, e.g. `osap_traces stats "
               "--help`)\n");
  std::exit(2);
}

/// One ArgParser per subcommand (parsed from argv[2] on), sharing the
/// generation knobs: [count] [duration] [seed] optional positionals.
struct SubcommandArgs {
  traces::DatasetId id{};
  std::string dir;  // export/mahimahi only
  traces::DatasetConfig config;

  void Parse(int argc, char** argv, const char* command,
             const char* summary, bool wants_dir) {
    util::ArgParser parser(std::string("osap_traces ") + command, summary);
    std::string dataset;
    parser.AddPositional("dataset", "dataset name (see `osap_traces list`)",
                         &dataset);
    if (wants_dir) {
      parser.AddPositional("dir", "output directory (split subdirs created)",
                           &dir);
    }
    seed_ = static_cast<std::size_t>(config.seed);
    parser.AddOptionalPositional("count", "traces to generate", &count_);
    parser.AddOptionalPositional("duration", "trace duration in seconds",
                                 &config.trace_duration_seconds);
    parser.AddOptionalPositional("seed", "generator seed", &seed_);
    if (!parser.Parse(argc, argv, 2)) parser.ExitWithError();
    if (parser.HelpRequested()) parser.ExitWithHelp();
    if (count_ != 0) config.trace_count = count_;
    config.seed = seed_;
    const std::optional<traces::DatasetId> found =
        traces::DatasetFromName(dataset);
    if (!found) {
      std::fprintf(stderr, "unknown dataset '%s'; try `osap_traces list`\n",
                   dataset.c_str());
      std::exit(2);
    }
    id = *found;
  }

 private:
  std::size_t count_ = 0;  // 0 keeps the DatasetConfig default
  std::size_t seed_ = 0;   // staged through size_t for the parser
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Usage();
  const std::string command = argv[1];

  if (command == "list") {
    std::printf("%-12s %-18s %s\n", "name", "label", "kind");
    for (traces::DatasetId id : traces::AllDatasetIds()) {
      std::printf("%-12s %-18s %s\n", traces::DatasetName(id).c_str(),
                  traces::DatasetLabel(id).c_str(),
                  traces::IsSyntheticIid(id) ? "synthetic i.i.d."
                                             : "empirical-like");
    }
    return 0;
  }

  if (command == "stats") {
    SubcommandArgs args;
    args.Parse(argc, argv, "stats",
               "Generate a dataset and print its split sizes and "
               "throughput statistics.",
               /*wants_dir=*/false);
    const traces::Dataset ds = traces::BuildDataset(args.id, args.config);
    RunningStats all;
    for (const auto* split : {&ds.train, &ds.validation, &ds.test}) {
      for (const auto& t : *split) {
        for (double v : t.samples()) all.Add(v);
      }
    }
    std::printf("dataset:    %s\n", traces::DatasetLabel(args.id).c_str());
    std::printf("traces:     %zu (train %zu / validation %zu / test %zu)\n",
                ds.TotalTraces(), ds.train.size(), ds.validation.size(),
                ds.test.size());
    std::printf("throughput: mean %.2f Mbps, std %.2f, min %.2f, max %.2f\n",
                all.Mean(), all.StdDev(), all.Min(), all.Max());
    return 0;
  }

  if (command == "export" || command == "mahimahi") {
    SubcommandArgs args;
    args.Parse(argc, argv, command.c_str(),
               command == "export"
                   ? "Write the train/validation/test splits as CSV trace "
                     "files."
                   : "Write MahiMahi packet-opportunity files for the real "
                     "link emulator.",
               /*wants_dir=*/true);
    const std::filesystem::path dir = args.dir;
    const traces::Dataset ds = traces::BuildDataset(args.id, args.config);
    std::size_t written = 0;
    for (const auto& [split, traces_ptr] :
         {std::pair{"train", &ds.train},
          std::pair{"validation", &ds.validation},
          std::pair{"test", &ds.test}}) {
      const auto split_dir = dir / split;
      if (command == "export") {
        traces::WriteTraceDirectory(*traces_ptr, split_dir);
      } else {
        std::filesystem::create_directories(split_dir);
        for (std::size_t i = 0; i < traces_ptr->size(); ++i) {
          traces::WriteMahimahiTrace(
              (*traces_ptr)[i],
              split_dir / (std::to_string(i) + ".mahi"));
        }
      }
      written += traces_ptr->size();
    }
    std::printf("wrote %zu traces under %s\n", written, dir.c_str());
    return 0;
  }

  Usage();
}
