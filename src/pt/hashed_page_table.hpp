/**
 * @file
 * HashedPageTable — an open-addressed hashed translation table, the first
 * non-radix TranslationTable.
 *
 * The classic alternative to radix walks (PowerPC HPTs, and the inverted/
 * hashed designs revisited by recent research): translations live in a
 * flat array of 8-byte entry slots packed into physical frames, found by
 * hashing the vpn and probing linearly. A walk is the probe sequence —
 * each probe is one physically-addressed memory touch, so the walker's
 * cache-footprint accounting stays exact: a hit costs as many touches as
 * the probe distance (1 for most entries at moderate load factor), not a
 * fixed four-level descent.
 *
 * Determinism & bounds: the probe bound is pt::kMaxWalkSteps. Insertion
 * keeps every mapped vpn reachable within that many probes (growing and
 * rehashing when a chain would exceed it or load passes ~70%), so
 * translation of mapped pages always terminates. Tombstones preserve
 * probe chains across unmap.
 *
 * Modeling note: slots hold an 8-byte PTE in simulated physical memory;
 * the vpn tag is tracked model-side (a real HPT spends a second word on
 * the tag — we charge one touch per probe, the dominant effect either
 * way).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "pt/page_table.hpp"
#include "pt/translation_table.hpp"

namespace ptm::pt {

class HashedPageTable final : public TranslationTable {
  public:
    /// Entry slots per 4 KiB bucket frame (512 eight-byte entries).
    static constexpr unsigned kSlotsPerFrame = kPtesPerNode;

    /**
     * @param frames         where bucket frames come from / go back to.
     * @param initial_frames starting bucket-frame count (power of two);
     *                       allocated eagerly, like the radix root.
     */
    explicit HashedPageTable(FrameSource frames,
                             std::uint64_t initial_frames = 4);
    ~HashedPageTable() override;

    HashedPageTable(const HashedPageTable &) = delete;
    HashedPageTable &operator=(const HashedPageTable &) = delete;

    bool map(std::uint64_t vpn, const PteFields &fields) override;
    void unmap(std::uint64_t vpn) override;
    std::optional<Pte> lookup(std::uint64_t vpn) const override;
    bool update(std::uint64_t vpn, const PteFields &fields) override;
    WalkResult walk(std::uint64_t vpn, WalkSteps &steps) const override;
    std::optional<Addr> leaf_entry_paddr(std::uint64_t vpn) const override;

    std::uint64_t root_frame() const override { return frames_.front(); }
    std::uint64_t node_count() const override { return frames_.size(); }
    std::string name() const override { return "hashed"; }
    /// Probe sequences share no hierarchical prefix: no PWC contract.
    bool radix_levels() const override { return false; }

    /// Live translations (diagnostics / tests).
    std::uint64_t entry_count() const { return occupied_; }

  private:
    enum class SlotState : std::uint8_t { Empty, Occupied, Tombstone };

    struct Slot {
        std::uint64_t vpn = 0;
        Pte pte;
        SlotState state = SlotState::Empty;
    };

    static std::uint64_t hash_vpn(std::uint64_t vpn);
    std::uint64_t probe_slot(std::uint64_t home, unsigned i) const
    {
        return (home + i) & (slots_.size() - 1);
    }
    Addr slot_paddr(std::uint64_t slot) const
    {
        return frames_[slot / kSlotsPerFrame] * kPageSize +
               (slot % kSlotsPerFrame) * kPteSize;
    }

    /// Slot holding @p vpn, found within the probe bound; npos if absent.
    std::uint64_t find_slot(std::uint64_t vpn) const;

    /// Double the frame count and re-place every live entry; false on
    /// frame-allocation failure (the table is left unchanged).
    bool grow();

    /// Place (vpn, pte) into @p slots under the probe bound; false if the
    /// chain would exceed it.
    static bool place(std::vector<Slot> &slots, std::uint64_t vpn, Pte pte);

    FrameSource source_;
    std::vector<std::uint64_t> frames_;  ///< bucket frames, in slot order
    std::vector<Slot> slots_;
    std::uint64_t occupied_ = 0;  ///< live entries
    std::uint64_t used_ = 0;      ///< live + tombstoned slots
};

}  // namespace ptm::pt
