#include "util/slab_pool.h"

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <vector>

namespace osap::util {
namespace {

// A slot type that records construction/destruction and remembers its
// scratch span, so tests can observe recycle-without-reconstruct and
// slab-carved storage.
struct Probe {
  explicit Probe(std::span<double> scratch)
      : scratch_data(scratch.data()), scratch_size(scratch.size()) {
    ++live;
    ++constructed;
  }
  ~Probe() { --live; }

  double* scratch_data;
  std::size_t scratch_size;
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

TEST_F(SlabPoolTest, AcquireConstructsReleaseDoesNot) {
  SlabPool<Probe> pool(/*slots_per_slab=*/2);
  const auto make = [](std::span<double> s) { return Probe(s); };
  const auto a = pool.Acquire(make);
  const auto b = pool.Acquire(make);
  EXPECT_EQ(pool.ActiveCount(), 2u);
  EXPECT_EQ(Probe::live, 2);
  pool.Release(a);
  EXPECT_EQ(Probe::live, 2) << "Release must not destroy the slot";
  EXPECT_EQ(pool.ActiveCount(), 1u);
  EXPECT_EQ(pool.FreeCount(), 1u);
  pool.Release(b);
}

TEST_F(SlabPoolTest, RecycledSlotKeepsPreviousState) {
  SlabPool<Probe> pool(4);
  const auto make = [](std::span<double> s) { return Probe(s); };
  const auto a = pool.Acquire(make);
  pool[a].value = 42;
  pool.Release(a);
  const auto again = pool.Acquire(make);
  EXPECT_EQ(again, a) << "free list must hand the slot back";
  EXPECT_EQ(pool[again].value, 42) << "recycle must not reconstruct";
  EXPECT_EQ(Probe::constructed, 1) << "only the first Acquire constructs";
}

TEST_F(SlabPoolTest, GrowsSlabBySlabWithStableReferences) {
  SlabPool<Probe> pool(2);
  const auto make = [](std::span<double> s) { return Probe(s); };
  std::vector<SlabPool<Probe>::Index> indices;
  for (int i = 0; i < 5; ++i) {
    const auto index = pool.Acquire(make);
    pool[index].value = i;
    indices.push_back(index);
  }
  EXPECT_EQ(pool.SlabCount(), 3u);  // ceil(5 / 2)
  Probe* first = &pool[indices[0]];
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(pool[indices[i]].value, i);
  }
  EXPECT_EQ(first, &pool[indices[0]]) << "slots must never move";
}

TEST_F(SlabPoolTest, ScratchIsCarvedFromTheSlabPerSlot) {
  constexpr std::size_t kDoubles = 7;
  SlabPool<Probe> pool(3, kDoubles);
  const auto make = [](std::span<double> s) { return Probe(s); };
  const auto a = pool.Acquire(make);
  const auto b = pool.Acquire(make);
  ASSERT_EQ(pool[a].scratch_size, kDoubles);
  ASSERT_EQ(pool[b].scratch_size, kDoubles);
  // Adjacent slots of one slab get adjacent, non-overlapping carvings.
  EXPECT_EQ(pool[b].scratch_data, pool[a].scratch_data + kDoubles);
  pool[a].scratch_data[kDoubles - 1] = 1.0;
  pool[b].scratch_data[0] = 2.0;
  EXPECT_EQ(pool[a].scratch_data[kDoubles - 1], 1.0);
  // Scratch(index) finds the same carving again.
  EXPECT_EQ(pool.Scratch(b).data(), pool[b].scratch_data);
  EXPECT_EQ(pool.Scratch(b).size(), kDoubles);
}

TEST_F(SlabPoolTest, NoScratchPoolPassesEmptySpan) {
  SlabPool<Probe> pool(2);
  const auto a = pool.Acquire([](std::span<double> s) { return Probe(s); });
  EXPECT_EQ(pool[a].scratch_size, 0u);
  EXPECT_TRUE(pool.Scratch(a).empty());
}

TEST_F(SlabPoolTest, TrimReleasesWhollyFreeTrailingSlabsOnly) {
  SlabPool<Probe> pool(2);
  const auto make = [](std::span<double> s) { return Probe(s); };
  std::vector<SlabPool<Probe>::Index> indices;
  for (int i = 0; i < 6; ++i) indices.push_back(pool.Acquire(make));
  ASSERT_EQ(pool.SlabCount(), 3u);

  // Free the middle slab only: nothing trailing is wholly free.
  pool.Release(indices[2]);
  pool.Release(indices[3]);
  EXPECT_EQ(pool.Trim(), 0u);
  EXPECT_EQ(pool.SlabCount(), 3u);

  // Free the last slab too: Trim drops it, which makes the (also wholly
  // free) middle slab trailing, so both go in one call.
  pool.Release(indices[4]);
  pool.Release(indices[5]);
  EXPECT_GT(pool.Trim(), 0u);
  EXPECT_EQ(pool.SlabCount(), 1u);
  EXPECT_EQ(Probe::live, 2);
  EXPECT_EQ(pool.FreeCount(), 0u) << "freed indices of dropped slabs purged";

  // The survivors are untouched and the pool still works.
  const auto fresh = pool.Acquire(make);
  EXPECT_EQ(pool.SlabCount(), 2u);
  pool.Release(fresh);
  pool.Release(indices[0]);
  pool.Release(indices[1]);
}

TEST_F(SlabPoolTest, DestructorDestroysConstructedSlots) {
  {
    SlabPool<Probe> pool(2);
    const auto make = [](std::span<double> s) { return Probe(s); };
    pool.Acquire(make);
    const auto b = pool.Acquire(make);
    pool.Acquire(make);
    pool.Release(b);  // free-listed slots are destroyed exactly once too
    EXPECT_EQ(Probe::live, 3);
  }
  EXPECT_EQ(Probe::live, 0);
}

TEST_F(SlabPoolTest, ValidatesArguments) {
  EXPECT_THROW(SlabPool<Probe>(0), std::invalid_argument);
  SlabPool<Probe> pool(2);
  EXPECT_THROW(pool.Release(0), std::invalid_argument);  // never acquired
}

TEST_F(SlabPoolTest, CapacityBytesCoversSlabsAndScratch) {
  constexpr std::size_t kDoubles = 4;
  SlabPool<Probe> pool(8, kDoubles);
  EXPECT_EQ(pool.CapacityBytes(), 0u);
  pool.Acquire([](std::span<double> s) { return Probe(s); });
  EXPECT_GE(pool.CapacityBytes(),
            8 * sizeof(Probe) + 8 * kDoubles * sizeof(double));
}

}  // namespace
}  // namespace osap::util
