/**
 * @file
 * TranslationTable — the abstract translation structure behind every
 * simulated address space.
 *
 * The radix PageTable was the one table baked into the kernels and the
 * nested walker; this interface is what they actually rely on: install /
 * remove / overwrite translations, and enumerate the physically-addressed
 * node touches a hardware walker performs — the touches are the whole
 * cache-footprint argument of the paper, so every implementation must
 * report the exact physical byte address of each entry it reads.
 *
 * Implementations: pt::PageTable (4-level radix), pt::HashedPageTable
 * (open-addressed buckets in physical frames). A new table becomes
 * sweepable by name with one row in the table_factory.cpp name table.
 */
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "common/types.hpp"
#include "pt/pte.hpp"

namespace ptm::pt {

/// Upper bound on walk steps any table may report per translation. The
/// radix tree uses kPtLevels (4); a hashed table's probe sequence is
/// capped here — implementations must keep every *mapped* translation
/// reachable within this many touches (rehashing if necessary).
inline constexpr unsigned kMaxWalkSteps = 8;

/// One step of a page walk, as seen by the hardware walker.
struct WalkStep {
    unsigned level = 0;        ///< radix level, or probe number (hashed)
    std::uint64_t node_frame = 0;  ///< frame holding the touched node
    unsigned index = 0;        ///< entry index within the node
    Addr entry_paddr = 0;      ///< physical byte address of the entry
    Pte pte;                   ///< entry value after the step
};

/// Outcome of TranslationTable::walk().
struct WalkResult {
    unsigned steps = 0;    ///< entries written to the step buffer (>= 1)
    /// True iff the final step's PTE is the leaf translation for the
    /// requested vpn. False means the walk ended at a non-present entry
    /// (radix: missing level; hashed: empty slot or probe cap) — the
    /// walker takes a page fault and retries.
    bool complete = false;
};

/// Step buffer a walker hands to walk(); sized for any table.
using WalkSteps = std::array<WalkStep, kMaxWalkSteps>;

/// Called by TranslationTable::unmap_range() for each page it clears,
/// with the page's old entry.
using UnmapCallback = std::function<void(std::uint64_t vpn, Pte old)>;

/**
 * Abstract translation structure. Not thread-safe; the owning kernel
 * serializes updates (walks from the simulated hardware walker are reads
 * and happen between kernel operations in the deterministic schedule).
 */
class TranslationTable {
  public:
    virtual ~TranslationTable() = default;

    /**
     * Install a translation vpn -> fields (intermediate structure is
     * created on demand).
     * @return false if a frame allocation failed (OOM).
     */
    virtual bool map(std::uint64_t vpn, const PteFields &fields) = 0;

    /// Remove a translation. The frames that held it may be kept until
    /// the table is destroyed.
    virtual void unmap(std::uint64_t vpn) = 0;

    /**
     * Remove every translation in [@p begin_vpn, @p end_vpn), in
     * ascending vpn order, calling @p on_unmapped right after each
     * present entry is cleared. The callback must not touch this table.
     * The default looks each vpn up and unmaps it.
     */
    virtual void
    unmap_range(std::uint64_t begin_vpn, std::uint64_t end_vpn,
                const UnmapCallback &on_unmapped)
    {
        for (std::uint64_t vpn = begin_vpn; vpn < end_vpn; ++vpn) {
            if (std::optional<Pte> pte = lookup(vpn)) {
                unmap(vpn);
                on_unmapped(vpn, *pte);
            }
        }
    }

    /// Current leaf entry for @p vpn, if mapped.
    virtual std::optional<Pte> lookup(std::uint64_t vpn) const = 0;

    /// Overwrite the leaf entry of an existing mapping (COW resolve).
    virtual bool update(std::uint64_t vpn, const PteFields &fields) = 0;

    /**
     * Enumerate the physically-addressed node entries a hardware walker
     * touches translating @p vpn, in touch order.
     */
    virtual WalkResult walk(std::uint64_t vpn, WalkSteps &steps) const = 0;

    /**
     * Physical byte address of the leaf entry slot for @p vpn, when the
     * slot exists (the entry itself may be non-present). Drives the
     * fragmentation metric, which is about PTE *placement*.
     */
    virtual std::optional<Addr> leaf_entry_paddr(std::uint64_t vpn)
        const = 0;

    /// Frame of the root structure (CR3 equivalent / bucket frame 0).
    virtual std::uint64_t root_frame() const = 0;

    /// Structure frames currently allocated.
    virtual std::uint64_t node_count() const = 0;

    /// Factory name ("radix", "hashed").
    virtual std::string name() const = 0;

    /**
     * True iff walk steps are the fixed radix hierarchy (level i of every
     * walk touches the same node for a shared vpn prefix), which is the
     * contract the page-walk cache exploits. Tables returning false run
     * with the PWC bypassed.
     */
    virtual bool radix_levels() const { return false; }
};

}  // namespace ptm::pt
