/**
 * @file
 * Reservation-based THP: reserve a 2 MiB block on first touch, map pages
 * lazily, promote (eagerly map the remainder) once the region proves hot.
 *
 * The paper's §2.3 case against THP — eager 2 MiB backing bloats sparse
 * tenants — and the middle ground between it and PTEMagnet's small
 * reservations are one mechanism: first touch of a 2 MiB virtual region
 * reserves an aligned 512-frame block and parks every frame but the
 * faulting page's; later faults in the region are served from the
 * reservation (keeping the region physically contiguous, like a
 * FreeBSD-style reservation system). When promotion_threshold pages of a
 * region have been demand-faulted, the region is promoted: every
 * remaining page inside a VMA is eagerly mapped. A page freed in its
 * reserved slot is parked again, and parked frames go back to the buddy
 * under pressure (Linux's deferred split of a partly unmapped THP). If
 * no aligned block is available (fragmentation), the fault falls back
 * to a plain 4 KiB buddy allocation.
 *
 * Registered twice: "reserve_thp" reads "promotion_threshold" from its
 * PolicyParams (default 64; 0 disables promotion, leaving a purely lazy
 * reservation policy), and "thp" is threshold 1, which promotes on the
 * first fault — the eager map-all THP model.
 *
 * Simplification: translations still use 4 KiB leaf PTEs (no 2 MiB leaf
 * entries or huge-TLB modelling); the comparison axis is contiguity and
 * memory footprint, which is the axis the paper argues about.
 */
#pragma once

#include <bitset>
#include <cstdint>
#include <map>

#include "common/stats.hpp"
#include "vm/page_provider.hpp"

namespace ptm::vm {

class GuestKernel;

/// Reserve-THP activity counters.
struct ReserveThpStats {
    Counter reservations_created;  ///< order-9 blocks reserved
    Counter reservation_hits;      ///< faults served from a reservation
    Counter promotions;            ///< regions promoted to eager mapping
    Counter pages_eager_mapped;    ///< pages mapped by promotion
    Counter fallback_singles;      ///< no order-9 block: plain 4 KiB path
    Counter frames_reclaimed;      ///< held frames released under pressure
};

class ReserveThpProvider final : public PhysicalPageProvider {
  public:
    /// Pages per reserved region: 2 MiB / 4 KiB.
    static constexpr unsigned kRegionPages = 512;
    /// Buddy order of one region.
    static constexpr unsigned kRegionOrder = 9;

    explicit ReserveThpProvider(GuestKernel *kernel,
                                std::uint64_t promotion_threshold = 64);

    AllocOutcome allocate_page(Process &proc, std::uint64_t gvpn) override;
    FreeDisposition on_page_freed(Process &proc, std::uint64_t gvpn,
                                  std::uint64_t gfn) override;
    void on_process_exit(Process &proc) override;
    std::uint64_t reclaim(std::uint64_t target_frames) override;

    void register_stats(obs::StatRegistry &registry,
                        const std::string &prefix) override;
    std::uint64_t held_frames() const override;

    const ReserveThpStats &stats() const { return stats_; }

  private:
    /// One reserved 2 MiB region of one process.
    struct Region {
        std::uint64_t base = 0;  ///< first frame of the reserved block
        /// Parked (reserved, unmapped) frames: bit i is frame base + i.
        std::bitset<kRegionPages> held;
        std::uint64_t demand_faults = 0;
        bool promoted = false;
    };

    AllocOutcome plain_single();
    void maybe_promote(Process &proc, std::uint64_t region_index,
                       Region &region);
    void release_held(Region &region);

    GuestKernel *kernel_;
    std::uint64_t promotion_threshold_;
    /// (pid << 40 | region) -> reservation state. Ordered so reclaim and
    /// exit sweep deterministically.
    std::map<std::uint64_t, Region> regions_;
    ReserveThpStats stats_;
};

}  // namespace ptm::vm
