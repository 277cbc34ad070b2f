#include "traces/trace_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "traces/generators.h"
#include "util/rng.h"

namespace osap::traces {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs a suite's tests as parallel
    // processes, and TearDown removes the directory.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("osap_trace_io_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(TraceIoTest, CsvRoundTripPreservesSamples) {
  const Trace t("roundtrip", 1.0, {1.5, 2.5, 0.25});
  const auto path = dir_ / "t.csv";
  WriteCsvTrace(t, path);
  const Trace back = ReadCsvTrace(path);
  EXPECT_EQ(back.samples(), t.samples());
  EXPECT_DOUBLE_EQ(back.interval_seconds(), 1.0);
}

TEST_F(TraceIoTest, CsvRoundTripNonUnitInterval) {
  const Trace t("halfsec", 0.5, {4.0, 8.0, 6.0});
  const auto path = dir_ / "h.csv";
  WriteCsvTrace(t, path);
  const Trace back = ReadCsvTrace(path);
  EXPECT_DOUBLE_EQ(back.interval_seconds(), 0.5);
  EXPECT_EQ(back.samples(), t.samples());
}

TEST_F(TraceIoTest, MahimahiRoundTripPreservesRatesApproximately) {
  // Mahimahi quantizes to 1500-byte packets; per-second rates must
  // round-trip within one packet's worth (0.012 Mbps).
  const Trace t("mm", 1.0, {2.0, 5.0, 1.0, 3.5});
  const auto path = dir_ / "t.mahi";
  WriteMahimahiTrace(t, path);
  const Trace back = ReadMahimahiTrace(path);
  ASSERT_GE(back.SampleCount(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(back.samples()[i], t.samples()[i], 0.05) << "second " << i;
  }
}

TEST_F(TraceIoTest, MahimahiTimestampsAreSortedMilliseconds) {
  const Trace t("mm2", 1.0, {10.0, 10.0});
  const auto path = dir_ / "t2.mahi";
  WriteMahimahiTrace(t, path);
  std::ifstream in(path);
  long long prev = -1;
  long long ts = 0;
  std::size_t count = 0;
  while (in >> ts) {
    EXPECT_GE(ts, prev);
    prev = ts;
    ++count;
  }
  // 10 Mbps for 2 s = 2.5 MB ~ 1666 packets.
  EXPECT_NEAR(static_cast<double>(count), 2.0 * 10.0 * 1e6 / 8.0 / 1500.0,
              2.0);
}

TEST_F(TraceIoTest, MahimahiEmptyFileThrows) {
  const auto path = dir_ / "empty.mahi";
  std::ofstream(path).close();
  EXPECT_THROW(ReadMahimahiTrace(path), std::invalid_argument);
}

TEST_F(TraceIoTest, DirectoryRoundTrip) {
  Rng rng(1);
  IidTraceGenerator gen(std::make_shared<GammaDistribution>(2.0, 2.0));
  std::vector<Trace> traces;
  for (int i = 0; i < 5; ++i) traces.push_back(gen.Generate(rng, 20.0, i));
  const auto tdir = dir_ / "set";
  WriteTraceDirectory(traces, tdir);
  const auto back = ReadTraceDirectory(tdir);
  ASSERT_EQ(back.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(back[i].samples(), traces[i].samples());
  }
}

TEST_F(TraceIoTest, ReadDirectoryRejectsNonDirectory) {
  EXPECT_THROW(ReadTraceDirectory(dir_ / "missing"),
               std::invalid_argument);
}

TEST_F(TraceIoTest, ReadCsvMissingFileThrows) {
  EXPECT_THROW(ReadCsvTrace(dir_ / "missing.csv"), std::runtime_error);
}

}  // namespace
}  // namespace osap::traces
