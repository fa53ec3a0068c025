/**
 * @file
 * The guest kernel's pluggable physical-page allocation policy.
 *
 * The default kernel asks the buddy allocator for one frame per fault
 * (§2.2); PTEMagnet (src/core) substitutes a reservation-based policy.
 * The interface is deliberately the narrow waist of the reproduction: the
 * *only* difference between the baseline and PTEMagnet runs is which
 * provider the guest kernel is constructed with.
 */
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace ptm::obs {
class StatRegistry;
}  // namespace ptm::obs

namespace ptm::vm {

class Process;

/// Result of a provider allocation.
struct AllocOutcome {
    bool ok = false;
    std::uint64_t gfn = 0;  ///< guest frame assigned to the faulting page
    Cycles cycles = 0;      ///< policy cost (buddy call / PaRT lookup...)
};

/// What should happen to a freed page's frame.
enum class FreeDisposition : std::uint8_t {
    ReturnToBuddy,   ///< kernel frees the frame to the buddy allocator
    KeptByProvider,  ///< provider retained the frame (e.g. in a reservation)
};

/**
 * Allocation policy hooks invoked by the guest kernel's fault and unmap
 * paths. Implementations must be deterministic given the fault order.
 */
class PhysicalPageProvider {
  public:
    virtual ~PhysicalPageProvider() = default;

    /// Provide a guest frame for @p proc's fault on page @p gvpn.
    virtual AllocOutcome allocate_page(Process &proc, std::uint64_t gvpn) = 0;

    /// A mapped page (gvpn -> gfn) of @p proc is being freed.
    virtual FreeDisposition on_page_freed(Process &proc, std::uint64_t gvpn,
                                          std::uint64_t gfn) = 0;

    /// @p proc is exiting; release any per-process provider state.
    virtual void on_process_exit(Process &proc) = 0;

    /// @p parent forked @p child (PTEMagnet links the child to the
    /// parent's reservation map, §4.4). Default: nothing.
    virtual void
    on_fork(Process &parent, Process &child)
    {
        (void)parent;
        (void)child;
    }

    /**
     * Memory pressure: release provider-held frames until @p target_frames
     * are freed or nothing is left to give back. Invoked by the kernel's
     * watermark daemon, by injected pressure episodes, and by the guest
     * balloon driver when the host's overcommit daemon asks this VM to
     * surrender frames and the free list alone cannot satisfy the target.
     * @return frames actually released to the buddy allocator.
     */
    virtual std::uint64_t reclaim(std::uint64_t target_frames)
    {
        (void)target_frames;
        return 0;
    }

    /// Register provider counters under "<prefix>.*". Default: nothing
    /// (stateless policies have nothing to report).
    virtual void
    register_stats(obs::StatRegistry &registry, const std::string &prefix)
    {
        (void)registry;
        (void)prefix;
    }

    /**
     * Frames the provider currently retains that no mapping uses (the
     * parked frames of its reservations), all of which reclaim() can
     * hand back. This is the "memory bloat" axis of the policy ablation.
     */
    virtual std::uint64_t held_frames() const { return 0; }
};

}  // namespace ptm::vm
