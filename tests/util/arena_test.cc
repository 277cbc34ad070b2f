#include "util/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

namespace osap::util {
namespace {

TEST(Arena, HandsOutDistinctWritableSpans) {
  Arena arena(64);
  auto a = arena.Alloc<double>(4);
  auto b = arena.Alloc<double>(4);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_NE(a.data(), b.data());
  std::iota(a.begin(), a.end(), 0.0);
  std::iota(b.begin(), b.end(), 10.0);
  EXPECT_EQ(a[3], 3.0);
  EXPECT_EQ(b[0], 10.0);  // writing b did not clobber a
  EXPECT_EQ(a[0], 0.0);
}

TEST(Arena, AllocationsAreAligned) {
  Arena arena(8);
  arena.Alloc<char>(3);  // misalign the bump pointer
  auto d = arena.Alloc<double>(2);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % alignof(double), 0u);
  auto i = arena.Alloc<std::int64_t>(1);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(i.data()) % alignof(std::int64_t),
            0u);
}

TEST(Arena, GrowsBeyondOneBlock) {
  Arena arena(16);  // every double-span below overflows a fresh block
  for (int round = 0; round < 4; ++round) {
    auto s = arena.Alloc<double>(8);
    ASSERT_EQ(s.size(), 8u);
    s[7] = static_cast<double>(round);
  }
  EXPECT_GE(arena.CapacityBytes(), 4u * 8u * sizeof(double));
}

TEST(Arena, ResetReusesCapacityWithoutGrowing) {
  Arena arena(32);
  arena.Alloc<double>(16);
  arena.Alloc<double>(16);
  const std::size_t grown = arena.CapacityBytes();
  for (int round = 0; round < 100; ++round) {
    arena.Reset();
    auto a = arena.Alloc<double>(16);
    auto b = arena.Alloc<double>(16);
    a[0] = b[0] = 1.0;
    EXPECT_EQ(arena.CapacityBytes(), grown) << "round " << round;
  }
}

TEST(Arena, ZeroCountReturnsEmptySpan) {
  Arena arena;
  EXPECT_TRUE(arena.Alloc<double>(0).empty());
  EXPECT_EQ(arena.CapacityBytes(), 0u);  // no block materialized
}

TEST(Arena, SingleAllocationLargerThanBlockSize) {
  Arena arena(8);
  auto s = arena.Alloc<double>(100);
  ASSERT_EQ(s.size(), 100u);
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<double>(i);
  EXPECT_EQ(s[99], 99.0);
}

}  // namespace
}  // namespace osap::util
