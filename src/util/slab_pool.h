// Slab pool for per-session serving state.
//
// A serving shard opens and closes sessions for the lifetime of the
// process; allocating each session's state with make_unique scatters it
// across the heap (pointer-chasing on the epoch scan) and pays the
// allocator on every open/close. SlabPool instead carves fixed-capacity
// slabs: Acquire() pops a free-list index or constructs the next
// never-used slot in the newest slab, Release() pushes the index back.
// Recycled slots are handed out WITHOUT destroying or reconstructing the
// object - the caller resets it in place - so steady-state churn touches
// no allocator and no constructor.
//
// Each slot optionally carries a fixed `scratch_doubles` span carved from
// the same slab, passed to the factory on first construction and found
// again through Scratch(index). This is how the serving path places each
// U_S session's novelty-extractor rings inside the shard's slab instead of
// a private heap buffer.
//
// Slot references are stable: slabs never move. Trim() releases wholly
// free trailing slabs (destroying their slots) so a population spike does
// not pin its high-water mark forever.
//
// Not thread-safe; each shard owns its own pool (sessions are sharded, so
// cross-shard sharing never happens by construction).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.h"

namespace osap::util {

template <typename T>
class SlabPool {
 public:
  using Index = std::uint32_t;
  /// Sentinel for "no slot" (a session without an extractor).
  static constexpr Index kInvalid = 0xffffffffu;

  explicit SlabPool(std::size_t slots_per_slab = 256,
                    std::size_t scratch_doubles = 0)
      : slots_per_slab_(slots_per_slab), scratch_doubles_(scratch_doubles) {
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "SlabPool: over-aligned slot types are not supported");
    OSAP_REQUIRE(slots_per_slab_ >= 1,
                 "SlabPool: slots_per_slab must be >= 1");
  }

  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  ~SlabPool() {
    for (std::size_t s = 0; s < slabs_.size(); ++s) DestroySlab(s);
  }

  /// Returns a slot index. Recycled slots come back as-is (the previous
  /// occupant's state intact - reset it); never-used slots are
  /// constructed from make(scratch), where scratch is this slot's
  /// scratch_doubles span (empty when the pool was built without
  /// scratch).
  template <typename Factory>
  Index Acquire(Factory&& make) {
    if (!free_.empty()) {
      const Index index = free_.back();
      free_.pop_back();
      --slab_free_[index / slots_per_slab_];
      return index;
    }
    if (slabs_.empty() || slabs_.back().constructed == slots_per_slab_) {
      AddSlab();
    }
    Slab& slab = slabs_.back();
    const Index index = static_cast<Index>(
        (slabs_.size() - 1) * slots_per_slab_ + slab.constructed);
    new (SlotPtr(index)) T(make(Scratch(index)));
    ++slab.constructed;
    return index;
  }

  /// Slot `index`'s scratch_doubles span (empty without scratch): the
  /// same memory its factory call received, for slot types that keep
  /// only plain state and find their storage by index.
  std::span<double> Scratch(Index index) {
    if (scratch_doubles_ == 0) return {};
    return {slabs_[index / slots_per_slab_].scratch.get() +
                (index % slots_per_slab_) * scratch_doubles_,
            scratch_doubles_};
  }

  /// Returns a slot to the free list. The object is NOT destroyed (it is
  /// recycled by a later Acquire, or destroyed by Trim/destruction).
  /// Releasing an index twice corrupts the free list - callers guard
  /// liveness themselves (the service's open_ flags).
  void Release(Index index) {
    OSAP_REQUIRE(index < SlotCount(), "SlabPool::Release: bad index");
    free_.push_back(index);
    ++slab_free_[index / slots_per_slab_];
  }

  T& operator[](Index index) { return *SlotPtr(index); }
  const T& operator[](Index index) const {
    return *const_cast<SlabPool*>(this)->SlotPtr(index);
  }

  /// Slots constructed so far (live + free-listed).
  std::size_t SlotCount() const {
    if (slabs_.empty()) return 0;
    return (slabs_.size() - 1) * slots_per_slab_ + slabs_.back().constructed;
  }

  std::size_t ActiveCount() const { return SlotCount() - free_.size(); }
  std::size_t FreeCount() const { return free_.size(); }
  std::size_t SlabCount() const { return slabs_.size(); }

  /// Backing bytes: slab object + scratch storage plus free-list capacity.
  std::size_t CapacityBytes() const {
    return slabs_.size() * SlabBytes() + free_.capacity() * sizeof(Index) +
           slab_free_.capacity() * sizeof(std::size_t);
  }

  /// Destroys and releases wholly free trailing slabs; returns the bytes
  /// released. O(free-list) only when a slab is actually reclaimed.
  std::size_t Trim() {
    std::size_t released = 0;
    while (!slabs_.empty()) {
      const std::size_t last = slabs_.size() - 1;
      if (slabs_[last].constructed == 0 ||
          slab_free_[last] != slabs_[last].constructed) {
        break;
      }
      const Index first = static_cast<Index>(last * slots_per_slab_);
      std::erase_if(free_, [first](Index i) { return i >= first; });
      DestroySlab(last);
      slabs_.pop_back();
      slab_free_.pop_back();
      released += SlabBytes();
    }
    return released;
  }

 private:
  struct Slab {
    std::unique_ptr<std::byte[]> objects;   // slots_per_slab x sizeof(T)
    std::unique_ptr<double[]> scratch;      // slots_per_slab x scratch_doubles
    std::size_t constructed = 0;            // slots built, in order
  };

  std::size_t SlabBytes() const {
    return slots_per_slab_ * sizeof(T) +
           slots_per_slab_ * scratch_doubles_ * sizeof(double);
  }

  T* SlotPtr(Index index) {
    Slab& slab = slabs_[index / slots_per_slab_];
    return std::launder(reinterpret_cast<T*>(
        slab.objects.get() + (index % slots_per_slab_) * sizeof(T)));
  }

  void AddSlab() {
    Slab slab;
    slab.objects =
        std::make_unique<std::byte[]>(slots_per_slab_ * sizeof(T));
    if (scratch_doubles_ > 0) {
      slab.scratch =
          std::make_unique<double[]>(slots_per_slab_ * scratch_doubles_);
    }
    slabs_.push_back(std::move(slab));
    slab_free_.push_back(0);
  }

  void DestroySlab(std::size_t s) {
    Slab& slab = slabs_[s];
    for (std::size_t i = slab.constructed; i-- > 0;) {
      SlotPtr(static_cast<Index>(s * slots_per_slab_ + i))->~T();
    }
    slab.constructed = 0;
  }

  std::size_t slots_per_slab_;
  std::size_t scratch_doubles_;
  std::vector<Slab> slabs_;
  std::vector<std::size_t> slab_free_;  // free slots per slab (Trim guard)
  std::vector<Index> free_;
};

}  // namespace osap::util
