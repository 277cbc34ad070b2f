#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "nn/losses.h"
#include "nn/sequential.h"

namespace osap::nn {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs a suite's tests as parallel
    // processes, and TearDown removes the directory.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("osap_nn_ser_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(SerializeTest, RoundTripPreservesOutputs) {
  Rng rng1(1);
  Rng rng2(2);
  Sequential a = MakeMlp(4, {8}, 3, rng1);
  Sequential b = MakeMlp(4, {8}, 3, rng2);  // different init

  const auto path = dir_ / "mlp.bin";
  SaveParamsToFile(path, a.Params());
  LoadParamsFromFile(path, b.Params());

  Matrix x(2, 4);
  Rng rng(3);
  for (double& v : x.values()) v = rng.Uniform(-1, 1);
  const Matrix ya = a.Forward(x);
  const Matrix yb = b.Forward(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_DOUBLE_EQ(ya.values()[i], yb.values()[i]);
  }
}

TEST_F(SerializeTest, StreamRoundTrip) {
  Rng rng(4);
  Sequential a = MakeMlp(3, {}, 2, rng);
  std::stringstream stream;
  SaveParams(stream, a.Params());
  Sequential b = MakeMlp(3, {}, 2, rng);
  LoadParams(stream, b.Params());
  EXPECT_EQ(a.Params()[0]->value.values(), b.Params()[0]->value.values());
}

TEST_F(SerializeTest, RejectsBadMagic) {
  std::stringstream stream;
  stream << "NOTANNFILE------";
  Rng rng(5);
  Sequential net = MakeMlp(2, {}, 1, rng);
  EXPECT_THROW(LoadParams(stream, net.Params()), std::runtime_error);
}

TEST_F(SerializeTest, RejectsParamCountMismatch) {
  Rng rng(6);
  Sequential small = MakeMlp(2, {}, 1, rng);
  Sequential big = MakeMlp(2, {4}, 1, rng);
  std::stringstream stream;
  SaveParams(stream, small.Params());
  EXPECT_THROW(LoadParams(stream, big.Params()), std::runtime_error);
}

TEST_F(SerializeTest, RejectsShapeMismatch) {
  Rng rng(7);
  Sequential a = MakeMlp(2, {}, 3, rng);
  Sequential b = MakeMlp(3, {}, 2, rng);  // same param count, diff shapes
  std::stringstream stream;
  SaveParams(stream, a.Params());
  EXPECT_THROW(LoadParams(stream, b.Params()), std::runtime_error);
}

TEST_F(SerializeTest, RejectsTruncatedStream) {
  Rng rng(8);
  Sequential a = MakeMlp(4, {8}, 3, rng);
  std::stringstream stream;
  SaveParams(stream, a.Params());
  const std::string full = stream.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  Sequential b = MakeMlp(4, {8}, 3, rng);
  EXPECT_THROW(LoadParams(truncated, b.Params()), std::runtime_error);
}

TEST_F(SerializeTest, MissingFileThrows) {
  Rng rng(9);
  Sequential net = MakeMlp(2, {}, 1, rng);
  EXPECT_THROW(LoadParamsFromFile(dir_ / "missing.bin", net.Params()),
               std::runtime_error);
}

TEST_F(SerializeTest, SaveCreatesParentDirectories) {
  Rng rng(10);
  Sequential net = MakeMlp(2, {}, 1, rng);
  const auto path = dir_ / "a" / "b" / "net.bin";
  SaveParamsToFile(path, net.Params());
  EXPECT_TRUE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace osap::nn
