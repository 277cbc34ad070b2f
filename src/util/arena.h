// Bump allocator for per-decision scratch.
//
// The online hot path (one uncertainty score per ABR decision) needs a
// handful of short-lived arrays - per-member distributions, means,
// distances - whose sizes are fixed per session. An Arena hands out
// spans from reusable blocks: the first few decisions grow it, Reset()
// rewinds it for the next decision, and from then on allocation is a
// pointer bump. Spans stay valid until the next Reset().
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace osap::util {

class Arena {
 public:
  explicit Arena(std::size_t min_block_bytes = 1024)
      : min_block_bytes_(min_block_bytes == 0 ? 1 : min_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns an uninitialized span of `count` Ts, valid until Reset().
  /// T must be trivially destructible (nothing is ever destroyed).
  template <typename T>
  std::span<T> Alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena only holds trivially destructible types");
    if (count == 0) return {};
    const std::size_t bytes = count * sizeof(T);
    void* p = AllocBytes(bytes, alignof(T));
    return {static_cast<T*>(p), count};
  }

  /// Rewinds every block; previously returned spans become invalid.
  /// Capacity is retained, so a steady-state caller never reallocates.
  void Reset() {
    for (Block& b : blocks_) b.used = 0;
    active_ = 0;
  }

  /// Total bytes of backing storage across all blocks.
  std::size_t CapacityBytes() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void* AllocBytes(std::size_t bytes, std::size_t align) {
    while (active_ < blocks_.size()) {
      Block& b = blocks_[active_];
      const std::size_t offset = AlignUp(b.used, align);
      if (offset + bytes <= b.size) {
        b.used = offset + bytes;
        return b.data.get() + offset;
      }
      ++active_;  // doesn't fit; bump into the next (or a new) block
    }
    std::size_t size = min_block_bytes_;
    if (!blocks_.empty()) size = blocks_.back().size * 2;
    if (size < bytes + align) size = bytes + align;
    Block b;
    b.data = std::make_unique<std::byte[]>(size);
    b.size = size;
    blocks_.push_back(std::move(b));
    Block& nb = blocks_.back();
    const std::size_t offset =
        AlignUp(reinterpret_cast<std::uintptr_t>(nb.data.get()), align) -
        reinterpret_cast<std::uintptr_t>(nb.data.get());
    nb.used = offset + bytes;
    return nb.data.get() + offset;
  }

  static std::size_t AlignUp(std::size_t v, std::size_t align) {
    return (v + align - 1) & ~(align - 1);
  }

  std::size_t min_block_bytes_;
  std::vector<Block> blocks_;
  std::size_t active_ = 0;
};

}  // namespace osap::util
