/**
 * @file
 * Nested (2D) page walker for one simulated core.
 *
 * Implements the virtualized translation flow of §2.5: on a TLB miss the
 * walker traverses the guest PT level by level; the guest-physical address
 * of every guest-PT node must itself be translated through the host PT
 * (served by the nested TLB when possible), and the final guest-physical
 * data address needs one more host walk — up to 24 memory accesses, each
 * issued into the cache hierarchy with its access kind so the experiments
 * can attribute latency to gPT vs hPT lines.
 *
 * Page faults discovered during the walk (non-present gPTE or hPTE) are
 * delegated to kernel-model callbacks, which return the installed frame
 * and the cycle cost of the fault path; the walk then resumes.
 */
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "cache/hierarchy.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "obs/stat_registry.hpp"
#include "pt/translation_table.hpp"
#include "tlb/tlb.hpp"

namespace ptm::mmu {

/// Result of a kernel fault handler invocation.
struct FaultOutcome {
    bool ok = false;            ///< false => unrecoverable (OOM)
    std::uint64_t frame = 0;    ///< installed frame (gfn or hfn)
    Cycles cycles = 0;          ///< cost of the fault path
};

/**
 * Non-owning page-fault callback: a plain function pointer plus a context
 * pointer, bound once at system setup. Replaces std::function on the
 * per-access hot path — no heap allocation, no type erasure, a single
 * indirect call. The bound context must outlive the walker.
 */
class FaultHook {
  public:
    using Fn = FaultOutcome (*)(void *ctx, std::uint64_t id);

    FaultHook() = default;
    FaultHook(Fn fn, void *ctx) : fn_(fn), ctx_(ctx) {}

    explicit operator bool() const { return fn_ != nullptr; }

    FaultOutcome operator()(std::uint64_t id) const
    {
        return fn_(ctx_, id);
    }

  private:
    Fn fn_ = nullptr;
    void *ctx_ = nullptr;
};

/// The guest side of a translation: one process's translation table plus
/// its kernel's page-fault handler.
struct GuestContext {
    pt::TranslationTable *page_table = nullptr;
    /// Handle a guest page fault on the faulting gvpn; must install a
    /// mapping.
    FaultHook fault_handler;
    /// Consult/fill the page-walk cache. Only meaningful for tables with
    /// radix_levels(); bound once at job creation from the table.
    bool use_pwc = true;
};

/// The host side: the VM's host translation table (guest-physical ->
/// host-physical) and the host kernel's lazy-backing fault handler.
struct HostContext {
    pt::TranslationTable *page_table = nullptr;
    /// Handle a host page fault on the faulting guest frame number.
    FaultHook fault_handler;
};

/// Everything a translation request reports back.
struct TranslationResult {
    std::uint64_t hfn = 0;        ///< host frame of the data page
    std::uint64_t gfn = 0;        ///< guest frame of the data page
                                  ///< (0 on a TLB hit: only walks learn it)
    Cycles cycles = 0;            ///< total translation cost incl. faults
    Cycles walk_cycles = 0;       ///< hardware walk portion only
    bool tlb_hit = false;
    bool faulted = false;
};

/// Walker-level counters (per core).
struct WalkerStats {
    Counter translations;
    Counter tlb_l1_hits;
    Counter tlb_l2_hits;
    Counter tlb_misses;            ///< == page walks performed
    Counter walk_cycles;           ///< cycles inside 2D walks
    Counter guest_pt_cycles;       ///< portion spent on gPT node accesses
    Counter host_pt_cycles;        ///< portion spent traversing the host PT
    Counter host_walks;            ///< full 1D host walks (nested-TLB misses)
    Counter nested_tlb_hits;
    Counter guest_pt_accesses;     ///< gPT node accesses issued
    Counter host_pt_accesses;      ///< hPT node accesses issued
    Counter guest_pt_mem_accesses; ///< ... of which served by main memory
    Counter host_pt_mem_accesses;  ///< ... of which served by main memory
    Counter guest_faults;
    Counter host_faults;
    Counter fault_cycles;          ///< cycles inside kernel fault handlers
    /// Hardware walk cycles per TLB-missing translation (log2 buckets).
    Histogram walk_cycles_hist;
    /// Guest-PT step (radix level, or probe number for hashed tables) of
    /// node accesses served by main memory.
    Histogram guest_pt_level_mem{BucketPolicy::Linear, pt::kMaxWalkSteps};
    /// Host-PT step of node accesses served by main memory.
    Histogram host_pt_level_mem{BucketPolicy::Linear, pt::kMaxWalkSteps};
};

/**
 * One core's MMU: TLBs, PWCs, nested TLB, and the 2D walk algorithm.
 * The cache hierarchy is shared; the core id selects the private levels.
 */
class NestedWalker {
  public:
    /// Extra cycles charged for an L2-TLB (STLB) hit.
    static constexpr Cycles kStlbHitPenalty = 7;

    NestedWalker(unsigned core, const tlb::TlbConfig &config,
                 cache::MemoryHierarchy *hierarchy, HostContext host);

    /**
     * Translate guest-virtual address @p gva for @p guest, performing TLB
     * lookups, the nested walk, and any needed faults.
     */
    TranslationResult translate(GuestContext &guest, Addr gva);

    /**
     * Translate a guest frame number to a host frame number the way the
     * walker would (nested TLB, else a host 1D walk with lazy backing),
     * charging cycles into @p result. Public for the host-walk ablation
     * and tests.
     */
    std::uint64_t host_translate(std::uint64_t gfn,
                                 TranslationResult &result);

    /// Drop a stale data-TLB entry (munmap, COW break).
    void invalidate(std::uint64_t gvpn);
    /// Drop a stale nested-TLB entry (host-side remap).
    void invalidate_nested(std::uint64_t gfn);
    /// Flush all translation caches on this core.
    void flush_all();

    unsigned core() const { return core_; }
    const WalkerStats &stats() const { return stats_; }
    void reset_stats() { stats_ = WalkerStats{}; }

    /// Register walker counters + latency histograms under
    /// "<prefix>.walker.*" (Measurement scope: cleared between the init
    /// and measure phases), and the TLB/PWC/nested-TLB structures under
    /// "<prefix>.l1tlb" etc. (Lifetime scope, like their reset behaviour).
    void register_stats(obs::StatRegistry &registry,
                        const std::string &prefix);

    tlb::TlbHierarchy &tlb() { return tlb_; }
    tlb::PageWalkCache &pwc() { return pwc_; }
    tlb::NestedTlb &nested_tlb() { return nested_tlb_; }

  private:
    /// One attempt at walking the guest PT; returns the leaf data gfn or
    /// nullopt if a guest fault had to be taken (caller retries).
    std::optional<std::uint64_t> walk_guest_once(GuestContext &guest,
                                                 std::uint64_t gvpn,
                                                 TranslationResult &result);

    unsigned core_;
    cache::MemoryHierarchy *hierarchy_;
    HostContext host_;
    tlb::TlbHierarchy tlb_;
    tlb::PageWalkCache pwc_;
    tlb::NestedTlb nested_tlb_;
    WalkerStats stats_;
    // Step buffers that walk() fills for every table, reused across
    // translations. Guest and host walks overlap — host_translate runs
    // mid guest walk — hence one buffer each.
    pt::WalkSteps guest_steps_;
    pt::WalkSteps host_steps_;
};

}  // namespace ptm::mmu
