/**
 * @file
 * PTEMagnet — the reservation-based guest physical allocator (§4).
 *
 * Drop-in replacement for the stock buddy provider: on the first fault in
 * a 32 KiB-aligned virtual group it takes an aligned 8-frame chunk from
 * the buddy allocator, maps only the faulting page, and parks the other
 * seven frames in a PaRT reservation; later faults in the group are PaRT
 * hits with no buddy call. This forces adjacent guest-virtual pages onto
 * adjacent guest-physical frames, packing their host PTEs into a single
 * cache line.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/part.hpp"
#include "obs/stat_registry.hpp"
#include "vm/page_provider.hpp"

namespace ptm::vm {
class GuestKernel;
}

namespace ptm::core {

/// PTEMagnet activity counters.
struct PtemagnetStats {
    Counter part_hits;             ///< faults served from a reservation
    Counter reservations_created;  ///< order-3 chunks taken from the buddy
    Counter fallback_singles;      ///< order-3 unavailable: plain 4K alloc
    Counter buddy_calls;           ///< total buddy-allocator invocations
    Counter frames_reclaimed;      ///< frames released under pressure
    Counter disabled_allocs;       ///< faults bypassing PTEMagnet (policy)
    Counter child_served_by_parent;///< child faults served from parent map
};

/**
 * The PTEMagnet page provider. One PaRT per process; deterministic given
 * the fault order.
 */
class PtemagnetProvider final : public vm::PhysicalPageProvider {
  public:
    /**
     * @param group_pages reservation granularity in pages (power of two,
     *        2..32). The paper's design point is 8 — exactly one PTE
     *        cache line; other values exist for the granularity ablation.
     */
    explicit PtemagnetProvider(vm::GuestKernel *kernel,
                               unsigned group_pages = kPagesPerReservation);
    ~PtemagnetProvider() override;

    vm::AllocOutcome allocate_page(vm::Process &proc,
                                   std::uint64_t gvpn) override;
    vm::FreeDisposition on_page_freed(vm::Process &proc, std::uint64_t gvpn,
                                      std::uint64_t gfn) override;
    void on_process_exit(vm::Process &proc) override;
    void on_fork(vm::Process &parent, vm::Process &child) override;
    std::uint64_t reclaim(std::uint64_t target_frames) override;

    /**
     * cgroup-style enablement policy (§4.4): PTEMagnet applies only to
     * processes for which the predicate returns true. Default: everyone.
     */
    void set_enabled_predicate(std::function<bool(const vm::Process &)> p)
    {
        enabled_ = std::move(p);
    }

    /**
     * The paper's concrete policy proposal (§4.4): enable PTEMagnet for
     * processes whose declared memory limit (cgroup
     * memory.limit_in_bytes, set by the orchestrator) is at or above
     * @p threshold_bytes — big-memory containers opt in automatically,
     * everything else takes the stock path.
     */
    void use_memory_limit_policy(Addr threshold_bytes);

    /// PaRT of @p pid, if the process ever faulted under PTEMagnet.
    const Part *part_of(std::int32_t pid) const;

    /// §6.2 gauge: reserved-but-unmapped pages across all processes.
    std::uint64_t total_unmapped_reserved() const;

    /// Factory-facing alias of the same gauge (memory-bloat axis).
    std::uint64_t held_frames() const override
    {
        return total_unmapped_reserved();
    }

    /// Total live reservations across all processes.
    std::uint64_t total_live_reservations() const;

    const PtemagnetStats &stats() const { return stats_; }

    /// Register activity counters under "<prefix>.*".
    void
    register_stats(obs::StatRegistry &registry,
                   const std::string &prefix) override
    {
        registry.counter(prefix + ".part_hits", &stats_.part_hits);
        registry.counter(prefix + ".reservations_created",
                         &stats_.reservations_created);
        registry.counter(prefix + ".fallback_singles",
                         &stats_.fallback_singles);
        registry.counter(prefix + ".buddy_calls", &stats_.buddy_calls);
        registry.counter(prefix + ".frames_reclaimed",
                         &stats_.frames_reclaimed);
        registry.counter(prefix + ".disabled_allocs",
                         &stats_.disabled_allocs);
        registry.counter(prefix + ".child_served_by_parent",
                         &stats_.child_served_by_parent);
    }

    unsigned group_pages() const { return group_pages_; }

  private:
    std::uint64_t group_of(std::uint64_t gvpn) const
    {
        return gvpn / group_pages_;
    }
    unsigned offset_of(std::uint64_t gvpn) const
    {
        return static_cast<unsigned>(gvpn % group_pages_);
    }

    Part &part_for(std::int32_t pid);
    vm::AllocOutcome plain_buddy_alloc();
    /// Free the unmapped frames of a drained reservation.
    std::uint64_t free_unmapped(const ReservationView &view);

    vm::GuestKernel *kernel_;
    unsigned group_pages_;
    unsigned reservation_order_;
    std::map<std::int32_t, std::unique_ptr<Part>> parts_;
    std::function<bool(const vm::Process &)> enabled_;
    PtemagnetStats stats_;
};

}  // namespace ptm::core
