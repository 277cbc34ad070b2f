#include "util/rss.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>

namespace osap::util {
namespace {

TEST(RssProbe, CurrentRssIsPositiveAndPageAligned) {
  const std::size_t rss = CurrentRssBytes();
  ASSERT_GT(rss, 0u) << "/proc/self/statm should exist on Linux";
  // A running process resides in at least a few hundred KB.
  EXPECT_GT(rss, 100u * 1024u);
}

TEST(RssProbe, PeakRssIsAtLeastCurrent) {
  // Peak is monotonic over the process lifetime, so it can never be below
  // a current reading taken afterwards.
  const std::size_t current = CurrentRssBytes();
  const std::size_t peak = PeakRssBytes();
  ASSERT_GT(peak, 0u);
  EXPECT_GE(peak, current);
}

TEST(RssProbe, TouchingMemoryGrowsRss) {
  const std::size_t before = CurrentRssBytes();
  constexpr std::size_t kBytes = 32 * 1024 * 1024;
  auto block = std::make_unique<unsigned char[]>(kBytes);
  // Touch every page so the kernel actually maps it.
  for (std::size_t i = 0; i < kBytes; i += 4096) block[i] = 1;
  const std::size_t after = CurrentRssBytes();
  EXPECT_GE(after, before + kBytes / 2)
      << "32 MB of touched pages must show up in RSS";
  EXPECT_GE(PeakRssBytes(), after);
}

// The fallback contract behind both probes: a minimal container without a
// /proc mount must get 0, never an assert or a crash, so the network-edge
// server still boots there. The probes are path-parameterized exactly so
// this is testable without unmounting /proc.
TEST(RssProbe, MissingProcFilesDegradeToZero) {
  EXPECT_EQ(RssBytesFromStatm("/nonexistent/osap/statm"), 0u);
  EXPECT_EQ(PeakRssBytesFromStatus("/nonexistent/osap/status"), 0u);
}

TEST(RssProbe, MalformedProcFilesDegradeToZero) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "osap_meter_test";
  std::filesystem::create_directories(dir);
  const std::filesystem::path statm = dir / "statm";
  const std::filesystem::path status = dir / "status";
  std::ofstream(statm) << "not numbers at all";
  std::ofstream(status) << "Name:\tgarbage\nVmHWM:\tnot-a-number kB\n";
  EXPECT_EQ(RssBytesFromStatm(statm.c_str()), 0u);
  EXPECT_EQ(PeakRssBytesFromStatus(status.c_str()), 0u);
  std::filesystem::remove_all(dir);
}

TEST(RssProbe, WellFormedProcFilesParse) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "osap_meter_test_ok";
  std::filesystem::create_directories(dir);
  const std::filesystem::path statm = dir / "statm";
  const std::filesystem::path status = dir / "status";
  std::ofstream(statm) << "1000 250 100 10 0 200 0\n";
  std::ofstream(status) << "Name:\ttest\nVmHWM:\t  2048 kB\nVmRSS:\t1 kB\n";
  // 250 resident pages at whatever the host page size is.
  EXPECT_GT(RssBytesFromStatm(statm.c_str()), 0u);
  EXPECT_EQ(RssBytesFromStatm(statm.c_str()) % 250, 0u);
  EXPECT_EQ(PeakRssBytesFromStatus(status.c_str()), 2048u * 1024u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace osap::util
