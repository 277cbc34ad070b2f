// Slab-grown slot array for per-session serving state.
//
// A serving lane addresses its sessions by the dense local index its id
// allocator hands out (and recycles). SlabPool maps each index to one
// fixed-stride slot: a T record followed by a span of `scratch_doubles`
// doubles, both carved from the same fixed-capacity slab. Allocating each
// session with make_unique would scatter it across the heap and pay the
// allocator on every open/close; growing one vector per field would pin
// the growth slack and the high-water mark forever. Here a slab is
// allocated when the first slot in it is claimed and released when the
// last claimed slot in it is vacated, so capacity tracks the population
// in steps of one slab, after a spike as well as during one.
//
// Claim() does not reset the slot: a slot vacated and claimed again while
// its slab stays held keeps the previous occupant's record and scratch -
// the caller resets what it reads. A newly allocated slab's records are
// value-initialized and its scratch zeroed. Slot references are stable
// while their slab is held.
//
// Not thread-safe; each shard lane owns its own pool.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "util/check.h"

namespace osap::util {

template <typename T>
class SlabPool {
 public:
  explicit SlabPool(std::size_t slots_per_slab, std::size_t scratch_doubles = 0)
      : slots_per_slab_(slots_per_slab),
        scratch_doubles_(scratch_doubles),
        record_bytes_((sizeof(T) + sizeof(double) - 1) / sizeof(double) *
                      sizeof(double)),
        stride_(record_bytes_ + scratch_doubles * sizeof(double)) {
    static_assert(alignof(T) <= alignof(double),
                  "SlabPool: slot records align to at most a double");
    OSAP_REQUIRE(slots_per_slab_ >= 1,
                 "SlabPool: slots_per_slab must be >= 1");
  }

  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  ~SlabPool() {
    for (Slab& slab : slabs_) {
      if (slab.bytes != nullptr) Release(slab);
    }
  }

  /// Counts slot `index` as claimed and returns its record, allocating its
  /// slab first when the slab is not held. Claiming a claimed slot
  /// corrupts the count - callers guard liveness themselves (the service's
  /// open flag).
  T& Claim(std::size_t index) {
    const std::size_t s = index / slots_per_slab_;
    if (s >= slabs_.size()) slabs_.resize(s + 1);
    Slab& slab = slabs_[s];
    if (slab.bytes == nullptr) {
      slab.bytes = std::make_unique<std::byte[]>(slots_per_slab_ * stride_);
      for (std::size_t i = 0; i < slots_per_slab_; ++i) {
        new (slab.bytes.get() + i * stride_) T{};
      }
      ++held_;
    }
    ++slab.claimed;
    return (*this)[index];
  }

  /// Un-claims slot `index`; the last claimed slot of a slab takes the
  /// slab (its records destroyed) with it.
  void Vacate(std::size_t index) {
    const std::size_t s = index / slots_per_slab_;
    OSAP_REQUIRE(s < slabs_.size() && slabs_[s].claimed > 0,
                 "SlabPool::Vacate: slot not claimed");
    if (--slabs_[s].claimed == 0) Release(slabs_[s]);
  }

  /// Slot `index`'s record, or nullptr when its slab is not held.
  T* Find(std::size_t index) {
    const std::size_t s = index / slots_per_slab_;
    return s < slabs_.size() && slabs_[s].bytes != nullptr ? &(*this)[index]
                                                           : nullptr;
  }

  /// Slot `index`'s record; its slab must be held.
  T& operator[](std::size_t index) {
    return *std::launder(reinterpret_cast<T*>(SlotBytes(index)));
  }

  /// Slot `index`'s scratch_doubles span (empty without scratch), right
  /// after its record in the slab; its slab must be held.
  std::span<double> Scratch(std::size_t index) {
    return {reinterpret_cast<double*>(SlotBytes(index) + record_bytes_),
            scratch_doubles_};
  }

  /// Slabs held (each holding at least one claimed slot).
  std::size_t SlabCount() const { return held_; }

  /// Bytes of the slab table: one entry per slab index up to the highest
  /// ever claimed, held or not.
  std::size_t TableBytes() const { return slabs_.capacity() * sizeof(Slab); }

  /// Held slabs (records + scratch) plus the slab table.
  std::size_t CapacityBytes() const {
    return held_ * slots_per_slab_ * stride_ + TableBytes();
  }

 private:
  struct Slab {
    std::unique_ptr<std::byte[]> bytes;  // slots_per_slab x stride; or null
    std::size_t claimed = 0;
  };

  std::byte* SlotBytes(std::size_t index) {
    return slabs_[index / slots_per_slab_].bytes.get() +
           (index % slots_per_slab_) * stride_;
  }

  void Release(Slab& slab) {
    for (std::size_t i = 0; i < slots_per_slab_; ++i) {
      std::launder(reinterpret_cast<T*>(slab.bytes.get() + i * stride_))->~T();
    }
    slab.bytes.reset();
    --held_;
  }

  std::size_t slots_per_slab_;
  std::size_t scratch_doubles_;
  std::size_t record_bytes_;  // sizeof(T) rounded up to a double
  std::size_t stride_;        // record_bytes_ + the scratch doubles
  std::vector<Slab> slabs_;
  std::size_t held_ = 0;
};

}  // namespace osap::util
