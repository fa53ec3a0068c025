/**
 * @file
 * The guest operating-system model: processes, page-fault handling, frame
 * accounting, fork/COW, and memory-pressure reclamation.
 *
 * This is "Linux inside the VM" for the purposes of the paper: its
 * physical allocator (the provider) decides which guest frame backs each
 * faulting virtual page, and that decision — made under interleaved
 * faults from colocated processes — is what creates or prevents host-PT
 * fragmentation.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/buddy_allocator.hpp"
#include "mem/physical_memory.hpp"
#include "mmu/nested_walker.hpp"
#include "obs/stat_registry.hpp"
#include "vm/page_provider.hpp"
#include "vm/process.hpp"

namespace ptm::obs {
class TraceSink;
}  // namespace ptm::obs

namespace ptm::vm {

/// Cycle costs of guest kernel paths (tuned, not measured; only relative
/// differences between the baseline and PTEMagnet paths matter).
struct GuestCostModel {
    Cycles fault_base = 1100;        ///< trap, VMA lookup, PTE install
    Cycles buddy_call = 320;         ///< one buddy-allocator invocation
    Cycles reservation_hit = 290;    ///< PaRT hit fast path (§6.4)
    Cycles reservation_insert = 150; ///< PaRT miss: new reservation entry
    Cycles zero_page = 350;          ///< clearing the newly mapped page
    Cycles cow_copy = 900;           ///< copying a page on COW break
};

/// Guest kernel activity counters.
struct GuestKernelStats {
    Counter faults_handled;
    Counter write_faults;
    Counter pages_mapped;
    Counter pages_freed;
    Counter reclaim_runs;
    Counter frames_reclaimed;
    Counter oom_events;
    Counter balloon_inflations;      ///< host-driven inflate requests
    Counter balloon_pages_taken;     ///< guest frames handed to the host
    Counter balloon_pages_returned;  ///< frames deflated back to the guest
    /// Fault-to-mapped latency of each demand fault, in cycles.
    Histogram fault_latency;
};

/// Watermarks controlling the reclamation daemon (§4.3). Zero disables.
struct ReclaimPolicy {
    std::uint64_t low_watermark_frames = 0;   ///< trigger below this
    std::uint64_t high_watermark_frames = 0;  ///< reclaim up to this
};

/**
 * External memory-pressure source (sim::FaultInjector implements this).
 * The kernel polls it once per pressure check — i.e. per handled fault —
 * and runs a provider reclaim sweep whenever it returns a nonzero frame
 * target, independent of the watermark policy. This is how a deterministic
 * FaultPlan opens the paper's §4.3 pressure episodes inside a run.
 */
class PressureAgent {
  public:
    virtual ~PressureAgent() = default;
    /// Frames the kernel should try to reclaim right now (0 = no
    /// pressure at this tick).
    virtual std::uint64_t pressure_tick() = 0;
};

class GuestKernel {
  public:
    /**
     * @param guest_frames size of guest-physical memory, in 4 KiB frames.
     */
    explicit GuestKernel(std::uint64_t guest_frames,
                         GuestCostModel costs = {});

    ~GuestKernel();

    GuestKernel(const GuestKernel &) = delete;
    GuestKernel &operator=(const GuestKernel &) = delete;

    /// Install the physical allocation policy. Must be called before any
    /// fault is handled; defaults to the plain buddy provider.
    void set_provider(std::unique_ptr<PhysicalPageProvider> provider);
    PhysicalPageProvider &provider() { return *provider_; }

    /**
     * Select the translation-table structure (pt::make_table name) used
     * by processes created from now on. Must be called before any process
     * exists; defaults to "radix".
     * @throws SimError if @p name is unknown.
     */
    void set_translation_table(const std::string &name);
    const std::string &translation_table() const { return table_name_; }

    /// Spawn a new process.
    Process &create_process(const std::string &name);

    /// Fork @p parent: clone the address space, share all mapped pages
    /// copy-on-write. Returns the child.
    Process &fork(Process &parent);

    /// Terminate @p proc, releasing all its memory.
    void exit_process(Process &proc);

    Process &process(std::int32_t pid);
    bool has_process(std::int32_t pid) const
    {
        return processes_.count(pid) != 0;
    }

    /**
     * Guest page-fault path: legitimacy check, provider allocation,
     * PTE installation. Matches the mmu::GuestContext callback shape.
     */
    mmu::FaultOutcome handle_fault(Process &proc, std::uint64_t gvpn);

    /**
     * Write access to a COW-mapped page: break the sharing.
     * @return cycle cost of the break (0 if the page was not COW).
     */
    Cycles handle_write(Process &proc, std::uint64_t gvpn);

    /// True if @p gvpn is currently mapped read-only pending COW.
    bool is_cow(const Process &proc, std::uint64_t gvpn) const;

    /// munmap a region previously returned by proc.vas().mmap(): unmap
    /// and free every backed page.
    void free_region(Process &proc, Addr base);

    /// Free a single page if mapped (workload-level free granularity).
    void free_page(Process &proc, std::uint64_t gvpn);

    mem::BuddyAllocator &buddy() { return buddy_; }
    mem::PhysicalMemory &memory() { return memory_; }
    const GuestCostModel &costs() const { return costs_; }

    void set_reclaim_policy(const ReclaimPolicy &policy)
    {
        reclaim_policy_ = policy;
    }

    /**
     * Arm (or with nullptr disarm) an injected memory-pressure source.
     * The agent must outlive the kernel or be disarmed first; the kernel
     * does not own it. Unarmed cost: one null check per pressure check.
     */
    void set_pressure_agent(PressureAgent *agent)
    {
        pressure_agent_ = agent;
    }

    /// Run the reclamation check immediately (tests / daemon tick).
    void check_memory_pressure();

    /**
     * Balloon driver, guest side (host overcommit): take up to @p target
     * free guest frames out of the buddy allocator and park them in the
     * balloon (FrameUse::Kernel). When the buddy runs dry the provider is
     * asked to reclaim held frames first. The taken guest frame numbers
     * are appended to @p out_gfns so the host can drop their backings.
     * @return frames actually taken (<= target).
     */
    std::uint64_t balloon_inflate(std::uint64_t target,
                                  std::vector<std::uint64_t> &out_gfns);

    /**
     * Return up to @p max_frames ballooned frames to the guest buddy
     * (guest-OOM last resort; touching them will re-fault host backing).
     * @return frames returned; 0 when the balloon is empty.
     */
    std::uint64_t balloon_deflate(std::uint64_t max_frames);

    /// Frames currently held by the balloon.
    std::uint64_t balloon_pages() const { return balloon_.size(); }

    const GuestKernelStats &stats() const { return stats_; }

    /// Register kernel counters + fault-latency histogram under
    /// "<prefix>.kernel.*" and the buddy allocator under
    /// "<prefix>.buddy.*".
    void register_stats(obs::StatRegistry &registry,
                        const std::string &prefix);

    /**
     * Arm (or with nullptr disarm) trace-event emission for faults and
     * reclaim sweeps. The sink must outlive the kernel or be disarmed
     * first; the kernel does not own it. Unarmed cost: one null check
     * per fault.
     */
    void set_trace_sink(obs::TraceSink *sink) { trace_ = sink; }

    /// Sim-layer hook: invoked whenever a translation for (pid, gvpn)
    /// becomes stale and per-core TLBs must drop it.
    std::function<void(std::int32_t pid, std::uint64_t gvpn)>
        on_translation_invalidated;

  private:
    pt::FrameSource pt_frame_source(std::int32_t pid);
    void unmap_one(Process &proc, std::uint64_t gvpn, pt::Pte pte);
    void invalidate_translation(Process &proc, std::uint64_t gvpn);
    /// Guest-OOM last resort: return every frame the provider parks
    /// (reservation tails) to the buddy, whatever the watermarks say.
    /// @return frames released.
    std::uint64_t reclaim_all_held();

    GuestCostModel costs_;
    mem::BuddyAllocator buddy_;
    mem::PhysicalMemory memory_;
    std::unique_ptr<PhysicalPageProvider> provider_;
    std::string table_name_ = "radix";
    std::map<std::int32_t, std::unique_ptr<Process>> processes_;
    /// COW frame reference counts (only frames shared by >= 2 mappings).
    std::unordered_map<std::uint64_t, std::uint32_t> shared_frames_;
    /// Guest frames surrendered to the host balloon (LIFO).
    std::vector<std::uint64_t> balloon_;
    ReclaimPolicy reclaim_policy_;
    PressureAgent *pressure_agent_ = nullptr;  ///< normally unarmed
    obs::TraceSink *trace_ = nullptr;          ///< normally unarmed
    GuestKernelStats stats_;
    std::int32_t next_pid_ = 1;
};

}  // namespace ptm::vm
