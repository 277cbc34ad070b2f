// Each named seed of each schedule profile, through SafeAgent, 1/2/4
// submitter groups and 1/2/4 edges, for every signal and both defaulting
// modes (testing/defaulting_oracle.h). One ctest entry per (profile,
// signal, mode) keeps each well inside the timeout under the sanitizers.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <tuple>

#include "testing/defaulting_oracle.h"

namespace osap::testing {
namespace {

using Param = std::tuple<serve::Signal, core::DefaultingMode>;

class DefaultingOracle : public ::testing::TestWithParam<Param> {
 protected:
  void Check(Profile profile, std::initializer_list<std::uint64_t> seeds) {
    const auto [signal, mode] = GetParam();
    const ServeWorld& w = SharedServeWorld();
    for (const std::uint64_t seed : seeds) {
      for (const std::size_t groups : {1u, 2u, 4u}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                     std::to_string(groups) + " groups");
        CheckSchedule(w,
                      MakeSchedule(profile, seed, groups, w.traces.size(),
                                   w.video.ChunkCount()),
                      signal, mode);
      }
    }
  }
};

TEST_P(DefaultingOracle, Dense) { Check(Profile::kDense, {1, 2}); }
TEST_P(DefaultingOracle, Sparse) { Check(Profile::kSparse, {1, 2}); }
TEST_P(DefaultingOracle, Churn) { Check(Profile::kChurn, {1}); }
TEST_P(DefaultingOracle, Burst) { Check(Profile::kBurst, {1, 2}); }
TEST_P(DefaultingOracle, Extreme) { Check(Profile::kExtreme, {1, 2}); }
TEST_P(DefaultingOracle, TileEdges) { Check(Profile::kTileEdges, {1}); }

INSTANTIATE_TEST_SUITE_P(
    AllSignalsBothModes, DefaultingOracle,
    ::testing::Combine(::testing::Values(serve::Signal::kNovelty,
                                         serve::Signal::kAgentEnsemble,
                                         serve::Signal::kValueEnsemble),
                       ::testing::Values(core::DefaultingMode::kPermanent,
                                         core::DefaultingMode::kRevocable)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return SignalModeName(std::get<0>(info.param),
                            std::get<1>(info.param));
    });

}  // namespace
}  // namespace osap::testing
