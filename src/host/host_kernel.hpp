/**
 * @file
 * Host kernel / hypervisor model (KVM-style, §3.1).
 *
 * The host treats each virtual machine as an ordinary process whose
 * virtual address space *is* the guest-physical space: guest frame number
 * == host-virtual page number. Host-physical backing is allocated lazily,
 * one page at a time, on the first touch of each guest frame — which is
 * why guest-physical fragmentation transfers verbatim into host-PT-leaf
 * scatter.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/buddy_allocator.hpp"
#include "mem/physical_memory.hpp"
#include "mmu/nested_walker.hpp"
#include "obs/stat_registry.hpp"
#include "pt/page_table.hpp"
#include "pt/translation_table.hpp"

namespace ptm::obs {
class TraceSink;
}  // namespace ptm::obs

namespace ptm::host {

/// Cycle costs of host-side paths.
struct HostCostModel {
    Cycles vmexit_fault = 2600;  ///< VM exit + host fault + re-entry
};

/// Host kernel activity counters.
struct HostKernelStats {
    Counter faults_handled;
    Counter pages_backed;
    Counter pages_unbacked;      ///< balloon-released backings dropped
    Counter frames_repossessed;  ///< data frames reclaimed from dead VMs
    Counter vms_destroyed;
};

/// One virtual machine as seen by the host: a host page table mapping
/// guest frames to machine frames.
class VmInstance {
  public:
    /// Convenience: a VM with the default radix host page table.
    VmInstance(std::int32_t id, pt::FrameSource pt_frames);

    /// A VM owning an explicit host translation table (factory-built).
    VmInstance(std::int32_t id,
               std::unique_ptr<pt::TranslationTable> table);

    std::int32_t id() const { return id_; }
    pt::TranslationTable &page_table() { return *page_table_; }
    const pt::TranslationTable &page_table() const { return *page_table_; }

    std::uint64_t backed_pages() const { return backed_pages_; }
    void note_backed() { ++backed_pages_; }
    void
    note_unbacked()
    {
        if (backed_pages_ > 0)
            --backed_pages_;
    }

  private:
    std::int32_t id_;
    std::unique_ptr<pt::TranslationTable> page_table_;
    std::uint64_t backed_pages_ = 0;
};

class HostKernel {
  public:
    explicit HostKernel(std::uint64_t host_frames, HostCostModel costs = {});
    ~HostKernel();

    HostKernel(const HostKernel &) = delete;
    HostKernel &operator=(const HostKernel &) = delete;

    /**
     * Boot a VM (its guest-physical space is backed on demand). Admission
     * is checked up front: booting needs the VM's page-table boot frames
     * (1 for radix, HashedPageTable::kInitialFrames for hashed tables).
     * @throws SimError with free/needed frame counts when the host cannot
     * back even the boot frames — recoverable, nothing is allocated.
     */
    VmInstance &create_vm();

    /**
     * Drop the host backing of @p vm's guest frame @p gfn (balloon path):
     * unmap the host PTE and free the machine frame. Fires
     * on_backing_invalidated first so stale nested-TLB entries are
     * shot down before the frame can be reused.
     * @return false when @p gfn was never backed (unproductive release).
     */
    bool unback(VmInstance &vm, std::uint64_t gfn);

    /**
     * Kill @p vm: repossess every data frame it owns, then destroy the
     * instance (its page-table destructor releases the PT node frames).
     * The reference is dead afterwards.
     * @return host frames freed (data + page-table nodes).
     */
    std::uint64_t destroy_vm(VmInstance &vm);

    std::uint64_t live_vm_count() const { return vms_.size(); }

    /**
     * Select the host translation-table structure (pt::make_table name)
     * used by VMs created from now on; defaults to "radix".
     * @throws SimError if @p name is unknown.
     */
    void set_translation_table(const std::string &name);
    const std::string &translation_table() const { return table_name_; }

    /**
     * Host page-fault path: back guest frame @p gfn of @p vm with a fresh
     * machine frame. Matches the mmu::HostContext callback shape.
     */
    mmu::FaultOutcome handle_fault(VmInstance &vm, std::uint64_t gfn);

    mem::BuddyAllocator &buddy() { return buddy_; }
    mem::PhysicalMemory &memory() { return memory_; }
    const HostCostModel &costs() const { return costs_; }
    const HostKernelStats &stats() const { return stats_; }

    /// Register kernel counters under "<prefix>.kernel.*" and the buddy
    /// allocator under "<prefix>.buddy.*".
    void register_stats(obs::StatRegistry &registry,
                        const std::string &prefix);

    /// Arm (or with nullptr disarm) trace-event emission for host faults.
    /// The sink must outlive the kernel or be disarmed first.
    void set_trace_sink(obs::TraceSink *sink) { trace_ = sink; }

    /// Sim-layer hook: invoked before a backing (vm_id, gfn) is dropped
    /// by unback(), so the owning VM's nested TLBs can be invalidated.
    std::function<void(std::int32_t vm_id, std::uint64_t gfn)>
        on_backing_invalidated;

  private:
    pt::FrameSource pt_frame_source(std::int32_t vm_id);

    /// Frames a new VM's translation table allocates at boot.
    std::uint64_t table_boot_frames() const;

    HostCostModel costs_;
    mem::BuddyAllocator buddy_;
    mem::PhysicalMemory memory_;
    std::string table_name_ = "radix";
    std::map<std::int32_t, std::unique_ptr<VmInstance>> vms_;
    obs::TraceSink *trace_ = nullptr;  ///< normally unarmed
    HostKernelStats stats_;
    std::int32_t next_vm_id_ = 1;
};

}  // namespace ptm::host
