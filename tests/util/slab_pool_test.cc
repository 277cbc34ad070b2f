#include "util/slab_pool.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <stdexcept>

namespace osap::util {
namespace {

// A slot type that counts constructions and destructions, so tests can
// observe when a slab's records are built and torn down.
struct Probe {
  Probe() {
    ++live;
    ++constructed;
  }
  ~Probe() { --live; }

  int value = 0;

  static int live;
  static int constructed;
};

int Probe::live = 0;
int Probe::constructed = 0;

struct ProbeFixture : ::testing::Test {
  void SetUp() override {
    Probe::live = 0;
    Probe::constructed = 0;
  }
};
using SlabPoolTest = ProbeFixture;

TEST_F(SlabPoolTest, RecycledSlotKeepsPreviousState) {
  SlabPool<Probe> pool(4);
  pool.Claim(0).value = 42;
  pool.Claim(1);  // keeps the slab held
  pool.Vacate(0);
  EXPECT_EQ(pool.Claim(0).value, 42) << "claiming must not reconstruct";
  EXPECT_EQ(Probe::constructed, 4) << "only the slab allocation constructs";
}

TEST_F(SlabPoolTest, GrowsSlabBySlabWithStableReferences) {
  SlabPool<Probe> pool(2);
  for (int i = 0; i < 5; ++i) pool.Claim(i).value = i;
  EXPECT_EQ(pool.SlabCount(), 3u);  // ceil(5 / 2)
  EXPECT_EQ(Probe::live, 6);
  Probe* first = &pool[0];
  pool.Claim(7);  // grows the slab table
  EXPECT_EQ(pool.SlabCount(), 4u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(pool[i].value, i);
  }
  EXPECT_EQ(first, &pool[0]) << "slots must never move";
}

TEST_F(SlabPoolTest, ScratchIsCarvedFromTheSlabPerSlot) {
  constexpr std::size_t kDoubles = 7;
  SlabPool<Probe> pool(3, kDoubles);
  pool.Claim(0);
  pool.Claim(1);
  const std::span<double> a = pool.Scratch(0);
  const std::span<double> b = pool.Scratch(1);
  ASSERT_EQ(a.size(), kDoubles);
  ASSERT_EQ(b.size(), kDoubles);
  EXPECT_EQ(a[0], 0.0) << "a new slab's scratch is zeroed";
  // Each slot is its record then its scratch, at a fixed stride: the
  // next slot's record sits between two carvings.
  const auto* after_a = reinterpret_cast<const std::byte*>(a.data() + kDoubles);
  EXPECT_EQ(reinterpret_cast<const std::byte*>(&pool[1]), after_a);
  EXPECT_EQ(reinterpret_cast<const std::byte*>(b.data()),
            after_a + sizeof(double));  // sizeof(Probe) rounds to 8
  a[kDoubles - 1] = 1.0;
  b[0] = 2.0;
  EXPECT_EQ(a[kDoubles - 1], 1.0);
  EXPECT_EQ(pool[1].value, 0) << "scratch writes stay out of the records";
}

TEST_F(SlabPoolTest, NoScratchPoolPassesEmptySpan) {
  SlabPool<Probe> pool(2);
  pool.Claim(0);
  EXPECT_TRUE(pool.Scratch(0).empty());
}

TEST_F(SlabPoolTest, VacatingTheLastSlotReleasesItsSlab) {
  SlabPool<Probe> pool(2);
  for (int i = 0; i < 6; ++i) pool.Claim(i);
  ASSERT_EQ(pool.SlabCount(), 3u);
  const std::size_t full = pool.CapacityBytes();

  // Half of the middle slab: it stays held, its records untouched.
  pool.Vacate(2);
  EXPECT_EQ(pool.SlabCount(), 3u);
  EXPECT_EQ(Probe::live, 6) << "vacating must not destroy a held slab";

  // The rest of it: the middle slab goes although it is not the last one.
  pool.Vacate(3);
  EXPECT_EQ(pool.SlabCount(), 2u);
  EXPECT_EQ(Probe::live, 4);
  EXPECT_EQ(pool.Find(2), nullptr);
  EXPECT_NE(pool.Find(4), nullptr);
  EXPECT_LT(pool.CapacityBytes(), full);

  // Claiming into a released slab builds it afresh.
  pool.Claim(3).value = 5;
  EXPECT_EQ(pool.SlabCount(), 3u);
  EXPECT_EQ(pool[2].value, 0);
  EXPECT_EQ(Probe::constructed, 8);
}

TEST_F(SlabPoolTest, DestructorDestroysConstructedSlots) {
  {
    SlabPool<Probe> pool(2);
    pool.Claim(0);
    pool.Claim(1);
    pool.Claim(2);
    pool.Vacate(1);  // vacated slots of held slabs are destroyed once too
    EXPECT_EQ(Probe::live, 4);
  }
  EXPECT_EQ(Probe::live, 0);
}

TEST_F(SlabPoolTest, ValidatesArguments) {
  EXPECT_THROW(SlabPool<Probe>(0), std::invalid_argument);
  SlabPool<Probe> pool(2);
  EXPECT_THROW(pool.Vacate(0), std::invalid_argument);  // never claimed
  pool.Claim(0);
  pool.Vacate(0);
  EXPECT_THROW(pool.Vacate(0), std::invalid_argument);  // slab released
}

TEST_F(SlabPoolTest, CapacityBytesCoversSlabsAndScratch) {
  constexpr std::size_t kDoubles = 4;
  SlabPool<Probe> pool(8, kDoubles);
  EXPECT_EQ(pool.CapacityBytes(), 0u);
  pool.Claim(0);
  EXPECT_GE(pool.CapacityBytes(),
            8 * sizeof(Probe) + 8 * kDoubles * sizeof(double));
  EXPECT_EQ(pool.CapacityBytes() - pool.TableBytes(),
            8 * (sizeof(double) + kDoubles * sizeof(double)));
}

}  // namespace
}  // namespace osap::util
