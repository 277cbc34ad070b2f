#include "util/csv.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

namespace osap {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs a suite's tests as parallel
    // processes, and TearDown removes the directory.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("osap_csv_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST(Split, KeepsEmptyFields) {
  const auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Split, SingleFieldWithoutDelimiter) {
  const auto parts = Split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(Split, EmptyStringYieldsOneEmptyField) {
  const auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Join, RoundTripsWithSplit) {
  const std::vector<std::string> fields = {"x", "y", "z"};
  EXPECT_EQ(Split(Join(fields, ';'), ';'), fields);
}

TEST(Trim, StripsWhitespaceBothEnds) {
  EXPECT_EQ(Trim("  abc \t\n"), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("   "), "");
}

TEST(ParseDouble, ParsesPlainAndScientific) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e-3"), -1e-3);
  EXPECT_DOUBLE_EQ(ParseDouble("  42 "), 42.0);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_THROW(ParseDouble("abc"), std::invalid_argument);
  EXPECT_THROW(ParseDouble(""), std::invalid_argument);
  EXPECT_THROW(ParseDouble("1.5x"), std::invalid_argument);
}

TEST_F(CsvTest, WriteAndReadBack) {
  const auto path = dir_ / "t.csv";
  {
    CsvWriter writer(path);
    writer.WriteHeader({"a", "b"});
    writer.WriteNumericRow({1.5, 2.5});
    writer.WriteRow({"x", "y"});
  }
  const auto rows = ReadCsv(path);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], "a");
  EXPECT_DOUBLE_EQ(ParseDouble(rows[1][0]), 1.5);
  EXPECT_EQ(rows[2][1], "y");
}

TEST_F(CsvTest, NumericRowsPreserveFullPrecision) {
  const auto path = dir_ / "p.csv";
  const double value = 0.1234567890123456789;
  {
    CsvWriter writer(path);
    writer.WriteNumericRow({value});
  }
  const auto rows = ReadCsv(path);
  EXPECT_DOUBLE_EQ(ParseDouble(rows[0][0]), value);
}

TEST_F(CsvTest, CreatesParentDirectories) {
  const auto path = dir_ / "deep" / "nested" / "t.csv";
  CsvWriter writer(path);
  writer.WriteHeader({"h"});
  EXPECT_TRUE(std::filesystem::exists(path));
}

TEST_F(CsvTest, ReadSkipsBlankLines) {
  const auto path = dir_ / "blank.csv";
  {
    std::ofstream out(path);
    out << "a,b\n\n1,2\n   \n";
  }
  const auto rows = ReadCsv(path);
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(CsvTest, ReadMissingFileThrows) {
  EXPECT_THROW(ReadCsv(dir_ / "nope.csv"), std::runtime_error);
}

}  // namespace
}  // namespace osap
