/**
 * @file
 * PaRT — the Page Reservation Table (§4.2).
 *
 * A per-process 4-level radix tree indexed by the 32 KiB-aligned group
 * number of a guest-virtual page (gvpn >> 3). Each level-3 slot describes
 * one reservation: the base guest frame of an aligned 8-frame chunk and
 * an 8-bit mask of which pages in the group the application has mapped,
 * in one 8-byte entry (a 32-bit base frame beside a 32-bit mask, so a
 * level-3 node is 4 KiB, like every other).
 *
 * Not thread-safe; the owning kernel serializes updates. The paper's
 * kernel patch takes a lock per radix node because Linux faults in
 * parallel; the simulated kernel handles one fault or free at a time.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "common/types.hpp"

namespace ptm::core {

/// Snapshot of one reservation (for iteration and tests).
struct ReservationView {
    std::uint64_t group = 0;     ///< gvpn / pages_per_group
    std::uint64_t base_gfn = 0;  ///< first frame of the reserved chunk
    std::uint32_t mask = 0;      ///< bit i set => page (group*N+i) mapped
};

/// Result of a claim attempt against an existing reservation.
struct ClaimResult {
    bool found = false;          ///< a reservation covered the group
    std::uint64_t gfn = 0;       ///< frame handed to the faulting page
    bool deleted_full = false;   ///< claim completed the group; entry gone
    /// The page was already claimed (a refault after a reclaim rebuilt
    /// the group's reservation); the returned gfn is the installed one.
    /// The kernel's fault path treats this as "mapping already present".
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
     * @p offset. Panics when @p base_gfn does not fit the entry's 32
     * bits (a guest of 2^32 frames is 16 TiB).
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
     * entry's view, in ascending group order, so the caller can free the
     * unmapped frames. Used by the reclamation daemon (all entries) and
     * by process exit.
     */
    void drain(const std::function<void(const ReservationView &)> &drain);

    /// Number of live reservations.
    std::uint64_t live_reservations() const { return live_reservations_; }

    /**
     * Reserved-but-unmapped pages across all live reservations — the
     * §6.2 memory-overhead gauge.
     */
    std::uint64_t unmapped_reserved_pages() const
    {
        return unmapped_reserved_;
    }

    unsigned pages_per_group() const { return pages_per_group_; }

  private:
    /// One reservation, stored inline in a level-3 node; mask 0 = empty.
    struct Entry {
        std::uint32_t base_gfn = 0;
        std::uint32_t mask = 0;
    };
    static_assert(sizeof(Entry) == 8, "an entry is a base frame and a mask");

    /// Levels 0..2 hold child pointers only; level 3 holds the entries.
    template <unsigned Level>
    struct Node;

    /// The live entry for @p group, or nullptr.
    Entry *live_entry(std::uint64_t group) const;

    std::unique_ptr<Node<0>> root_;
    unsigned pages_per_group_;
    std::uint32_t full_mask_;
    std::uint64_t live_reservations_ = 0;
    std::uint64_t unmapped_reserved_ = 0;
};

}  // namespace ptm::core
