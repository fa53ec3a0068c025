#include "mem/physical_memory.hpp"

#include "common/log.hpp"

namespace ptm::mem {

PhysicalMemory::PhysicalMemory(std::uint64_t base_frame,
                               std::uint64_t frame_count)
    : base_frame_(base_frame), frame_count_(frame_count),
      frames_(frame_count)
{
    if (frame_count == 0)
        ptm_fatal("physical memory with zero frames");
}

std::size_t
PhysicalMemory::index_of(std::uint64_t frame) const
{
    if (frame < base_frame_ || frame >= base_frame_ + frame_count_) {
        ptm_panic("frame %llu outside physical memory [%llu, %llu)",
                  static_cast<unsigned long long>(frame),
                  static_cast<unsigned long long>(base_frame_),
                  static_cast<unsigned long long>(base_frame_ + frame_count_));
    }
    return static_cast<std::size_t>(frame - base_frame_);
}

void
PhysicalMemory::set_use(std::uint64_t frame, std::uint64_t count,
                        FrameUse use, std::int32_t owner)
{
    for (std::uint64_t i = 0; i < count; ++i) {
        FrameInfo &fi = frames_[index_of(frame + i)];
        fi.use = use;
        fi.owner_plus_one_ = (use == FrameUse::Free)
                                 ? 0
                                 : static_cast<std::uint32_t>(owner) + 1;
    }
}

const FrameInfo &
PhysicalMemory::info(std::uint64_t frame) const
{
    return frames_[index_of(frame)];
}

std::uint64_t
PhysicalMemory::count_use(FrameUse use, std::int32_t owner) const
{
    std::uint64_t n = 0;
    for (const FrameInfo &fi : frames_) {
        if (fi.use == use && (owner < 0 || fi.owner() == owner))
            ++n;
    }
    return n;
}

std::string
PhysicalMemory::use_name(FrameUse use)
{
    switch (use) {
      case FrameUse::Free: return "free";
      case FrameUse::Data: return "data";
      case FrameUse::PageTable: return "page-table";
      case FrameUse::Reserved: return "reserved";
      case FrameUse::Kernel: return "kernel";
    }
    return "unknown";
}

}  // namespace ptm::mem
