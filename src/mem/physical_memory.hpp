/**
 * @file
 * Frame-space metadata for a simulated physical memory.
 *
 * The simulator never stores page *contents* — only addresses matter for
 * translation/caching behaviour — but kernels, tests, and the examples need
 * to know what every frame is currently used for. PhysicalMemory keeps one
 * small descriptor per frame, the analogue of Linux's `struct page` array.
 * A descriptor of all-zero bytes is a free frame with no owner, so a fresh
 * frame space is one zero fill.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace ptm::mem {

/// What a physical frame is currently used for. Four bytes wide so a
/// FrameInfo has no padding, and the compiler fills a fresh descriptor
/// array with wide zero stores.
enum class FrameUse : std::uint32_t {
    Free,       ///< on the buddy free lists
    Data,       ///< mapped application data page
    PageTable,  ///< holds a page-table node
    Reserved,   ///< held in a provider reservation, not yet mapped
    Kernel,     ///< other kernel-internal use
};

/// Per-frame descriptor.
class FrameInfo {
  public:
    FrameUse use = FrameUse::Free;

    /// Owning process id, -1 for none/kernel.
    std::int32_t
    owner() const
    {
        return static_cast<std::int32_t>(owner_plus_one_ - 1);
    }

  private:
    friend class PhysicalMemory;

    std::uint32_t owner_plus_one_ = 0;  ///< owner + 1: 0 for none
};

/**
 * Flat frame space of @c frame_count frames with per-frame metadata.
 * Pure bookkeeping: allocation policy lives in BuddyAllocator.
 */
class PhysicalMemory {
  public:
    PhysicalMemory(std::uint64_t base_frame, std::uint64_t frame_count);

    std::uint64_t base_frame() const { return base_frame_; }
    std::uint64_t frame_count() const { return frame_count_; }
    Addr size_bytes() const { return frame_count_ * kPageSize; }

    /// Mark @p count frames starting at @p frame.
    void set_use(std::uint64_t frame, std::uint64_t count, FrameUse use,
                 std::int32_t owner = -1);

    const FrameInfo &info(std::uint64_t frame) const;

    /// Count frames in a given use state (optionally for one owner).
    std::uint64_t count_use(FrameUse use, std::int32_t owner = -1) const;

    /// Human-readable name of a frame-use tag.
    static std::string use_name(FrameUse use);

  private:
    std::size_t index_of(std::uint64_t frame) const;

    std::uint64_t base_frame_;
    std::uint64_t frame_count_;
    std::vector<FrameInfo> frames_;
};

}  // namespace ptm::mem
