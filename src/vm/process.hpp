/**
 * @file
 * One guest process: virtual address space + guest page table + a little
 * accounting. Lifecycle and policy live in GuestKernel.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/types.hpp"
#include "pt/page_table.hpp"
#include "pt/translation_table.hpp"
#include "vm/virtual_address_space.hpp"

namespace ptm::vm {

class Process {
  public:
    /// Convenience: a process with the default radix page table.
    Process(std::int32_t pid, std::string name, pt::FrameSource pt_frames);

    /// A process owning an explicit translation table (factory-built).
    Process(std::int32_t pid, std::string name,
            std::unique_ptr<pt::TranslationTable> table);

    std::int32_t pid() const { return pid_; }
    const std::string &name() const { return name_; }

    VirtualAddressSpace &vas() { return vas_; }
    const VirtualAddressSpace &vas() const { return vas_; }

    pt::TranslationTable &page_table() { return *page_table_; }
    const pt::TranslationTable &page_table() const { return *page_table_; }

    /// Resident pages (mapped data pages).
    std::uint64_t rss_pages() const { return rss_pages_; }
    void add_rss(std::int64_t delta);

    std::int32_t parent_pid() const { return parent_pid_; }
    void set_parent_pid(std::int32_t pid) { parent_pid_ = pid; }

    /// Orchestrator-declared memory limit (cgroup memory.limit_in_bytes);
    /// 0 means unset. Drives the PTEMagnet enablement policy (§4.4).
    Addr memory_limit_bytes() const { return memory_limit_bytes_; }
    void set_memory_limit_bytes(Addr limit) { memory_limit_bytes_ = limit; }

  private:
    std::int32_t pid_;
    std::string name_;
    std::int32_t parent_pid_ = -1;
    Addr memory_limit_bytes_ = 0;
    VirtualAddressSpace vas_;
    std::unique_ptr<pt::TranslationTable> page_table_;
    std::uint64_t rss_pages_ = 0;
};

}  // namespace ptm::vm
