/**
 * @file
 * PaRT — the Page Reservation Table (§4.2).
 *
 * A per-process 4-level radix tree indexed by the 32 KiB-aligned group
 * number of a guest-virtual page (gvpn >> 3). Each leaf entry describes
 * one reservation: the base guest frame of an aligned 8-frame chunk and
 * an 8-bit mask of which pages in the group the application has mapped.
 *
 * Concurrency follows the paper's design: one lock per radix-tree node,
 * taken hand-over-hand on descent, so that threads faulting in disjoint
 * regions never contend. All mutating operations are atomic with respect
 * to each other.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace ptm::core {

/// Snapshot of one reservation (for iteration and tests).
struct ReservationView {
    std::uint64_t group = 0;     ///< gvpn / pages_per_group
    std::uint64_t base_gfn = 0;  ///< first frame of the reserved chunk
    std::uint32_t mask = 0;      ///< bit i set => page (group*N+i) mapped
};

/// PaRT activity counters. Atomics: updated from concurrent fault paths.
struct PartStats {
    std::atomic<std::uint64_t> lookups{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> creates{0};
    std::atomic<std::uint64_t> deletes_full{0};   ///< all 8 pages mapped
    std::atomic<std::uint64_t> deletes_free{0};   ///< all pages freed
};

/// Result of a claim attempt against an existing reservation.
struct ClaimResult {
    bool found = false;          ///< a reservation covered the group
    std::uint64_t gfn = 0;       ///< frame handed to the faulting page
    bool deleted_full = false;   ///< claim completed the group; entry gone
    /// The page was already claimed (a concurrent fault won the race);
    /// the returned gfn is the one the winner installed. The kernel's
    /// fault path treats this as "mapping already present".
    bool already_mapped = false;
};

/// Result of releasing one page of a reservation.
struct ReleaseResult {
    bool found = false;          ///< a reservation covered the group
    bool deleted_empty = false;  ///< last mapped page gone; entry removed
    std::uint64_t base_gfn = 0;  ///< valid when deleted_empty: chunk base
    std::uint32_t final_mask = 0;  ///< mask after the clear
};

/**
 * The reservation table of one process.
 */
class Part {
  public:
    static constexpr unsigned kLevels = 4;
    static constexpr unsigned kBitsPerLevel = 9;
    static constexpr unsigned kFanout = 1u << kBitsPerLevel;

    // Node types are opaque outside part.cpp but must be nameable by the
    // internal traversal helpers.
    struct Node;
    struct Leaf;

    /**
     * @param pages_per_group pages covered by one reservation (2..32);
     *        the paper's choice is 8 — one PTE cache line (the default).
     */
    explicit Part(unsigned pages_per_group = kPagesPerReservation);
    ~Part();

    Part(const Part &) = delete;
    Part &operator=(const Part &) = delete;

    /**
     * Fault fast path: if a reservation covers @p group, mark @p offset
     * mapped and return its frame. Deletes the entry when the mask
     * becomes full (the paper's safe-deletion rule).
     */
    ClaimResult claim(std::uint64_t group, unsigned offset);

    /**
     * Fault slow path, after a failed claim: record a new reservation for
     * @p group with chunk base @p base_gfn, immediately claiming
     * @p offset.
     * @return frame for the faulting page.
     */
    std::uint64_t create(std::uint64_t group, std::uint64_t base_gfn,
                         unsigned offset);

    /**
     * free() path: mark @p offset unmapped. If the mask becomes empty the
     * entry is deleted and the caller must return the whole chunk to the
     * buddy allocator (ReleaseResult::deleted_empty).
     */
    ReleaseResult release(std::uint64_t group, unsigned offset);

    /// Non-mutating lookup.
    std::optional<ReservationView> find(std::uint64_t group) const;

    /**
     * Remove every reservation, invoking @p drain with each removed
     * entry's view so the caller can free the unmapped frames. Used by
     * the reclamation daemon (all entries) and by process exit.
     */
    void drain(const std::function<void(const ReservationView &)> &drain);

    /// Number of live reservations.
    std::uint64_t live_reservations() const
    {
        return live_reservations_.load(std::memory_order_relaxed);
    }

    /**
     * Reserved-but-unmapped pages across all live reservations — the
     * §6.2 memory-overhead gauge.
     */
    std::uint64_t unmapped_reserved_pages() const
    {
        return unmapped_reserved_.load(std::memory_order_relaxed);
    }

    const PartStats &stats() const { return stats_; }

    unsigned pages_per_group() const { return pages_per_group_; }

  private:
    std::unique_ptr<Node> root_;
    unsigned pages_per_group_;
    std::uint32_t full_mask_;
    std::atomic<std::uint64_t> live_reservations_{0};
    std::atomic<std::uint64_t> unmapped_reserved_{0};
    PartStats stats_;
};

}  // namespace ptm::core
