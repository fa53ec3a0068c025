/**
 * @file
 * Four-level radix page table with physically-addressed nodes.
 *
 * Each node is one 4 KiB frame of 512 eight-byte entries, obtained from a
 * caller-supplied frame source (the guest or host buddy allocator), so the
 * *physical placement* of every PTE — the thing the paper's cache-footprint
 * argument is about — is exact: the entry for virtual page v at the leaf
 * level lives at byte address node_frame*4096 + (v & 511)*8.
 *
 * The host copy of a node is the size of the node it simulates plus, at
 * the interior levels, one child pointer per entry: a leaf is exactly its
 * 512 PTEs (4 KiB), an interior node 512 {PTE, child} pairs (8 KiB). No
 * node records its own frame; each is read from the parent's entry, and
 * the table keeps only the root's. A leaf that unmap_range() leaves all
 * zeros has no host copy at all: its frame stays in its parent's entry,
 * and every operation reads it as a leaf of 512 empty entries.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/types.hpp"
#include "pt/pte.hpp"
#include "pt/translation_table.hpp"

namespace ptm::pt {

/// Where page-table node frames come from / go back to.
struct FrameSource {
    /// Allocate one frame for a PT node; nullopt on OOM.
    std::function<std::optional<std::uint64_t>()> allocate;
    /// Return a node frame.
    std::function<void(std::uint64_t)> release;
};

/**
 * The radix tree. Not thread-safe; the owning kernel serializes updates
 * (walks from the simulated hardware walker are reads and happen between
 * kernel operations in the deterministic schedule).
 */
class PageTable final : public TranslationTable {
  public:
    /// Number of leaf-level entries covered by one table node.
    static constexpr unsigned kFanout = kPtesPerNode;

    /**
     * @param frames where node frames come from. The root node is
     *               allocated eagerly (as the kernel does for a new mm).
     */
    explicit PageTable(FrameSource frames);
    ~PageTable() override;

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /**
     * Install a translation vpn -> fields. Intermediate nodes are created
     * on demand.
     * @return false if a node allocation failed (OOM).
     */
    bool map(std::uint64_t vpn, const PteFields &fields) override;

    /// Clear the leaf entry for @p vpn. No node frame is freed before the
    /// table is: an emptied node keeps its frame until the process exits
    /// (Linux would free it at munmap; see ROADMAP.md). The leaf keeps its
    /// host copy too; only unmap_range() drops one.
    void unmap(std::uint64_t vpn) override;

    /**
     * unmap() every vpn in [@p begin_vpn, @p end_vpn) with one descent per
     * leaf, calling @p on_unmapped after each present entry is cleared.
     * After each leaf the range touched, its host copy is released if all
     * 512 entries are empty. The leaf's frame stays allocated in its
     * level-2 entry, so node_count(), frame accounting and every
     * simulated address are unchanged.
     */
    void unmap_range(std::uint64_t begin_vpn, std::uint64_t end_vpn,
                     const UnmapCallback &on_unmapped) override;

    /// Current leaf entry for @p vpn, if the whole path exists.
    std::optional<Pte> lookup(std::uint64_t vpn) const override;

    /// Write the leaf entry for @p vpn (e.g. COW resolve); false if its
    /// leaf node does not exist.
    bool update(std::uint64_t vpn, const PteFields &fields) override;

    /// TranslationTable walk: root to leaf, stopping after a non-present
    /// entry; complete iff all four levels resolved.
    WalkResult walk(std::uint64_t vpn, WalkSteps &steps) const override;

    /**
     * Physical byte address of the leaf PTE slot for @p vpn, if the leaf
     * node exists (the entry itself may be non-present). Used by the
     * fragmentation metric, which is about PTE *placement*.
     */
    std::optional<Addr> leaf_entry_paddr(std::uint64_t vpn) const override;

    /// Frame of the root node (CR3 equivalent).
    std::uint64_t root_frame() const override { return root_frame_; }

    /// Total nodes currently allocated, all levels.
    std::uint64_t node_count() const override { return node_count_; }

    /// Leaf nodes that have a host copy (diagnostics / tests): the leaf
    /// nodes in node_count() minus those unmap_range() emptied.
    std::uint64_t leaf_copies() const;

    std::string name() const override { return "radix"; }

    /// The PWC contract holds by construction.
    bool radix_levels() const override { return true; }

    /// Radix index of @p vpn at @p level (0 = root).
    static unsigned
    index_at(std::uint64_t vpn, unsigned level)
    {
        unsigned shift = 9 * (kPtLevels - 1 - level);
        return static_cast<unsigned>((vpn >> shift) & (kFanout - 1));
    }

  private:
    /// The node at @p Level (0 = root); defined in page_table.cpp.
    template <unsigned Level>
    struct Node;
    using Leaf = Node<kPtLevels - 1>;

    /// An interior entry and the host copy of the node it maps.
    template <class Child>
    struct Slot {
        Pte pte;
        std::unique_ptr<Child> child;
    };

    /// The level-2 entry that maps the leaf covering @p vpn; nullptr when
    /// the path above it is incomplete.
    Slot<Leaf> *leaf_slot(std::uint64_t vpn) const;

    FrameSource frames_;
    std::unique_ptr<Node<0>> root_;
    std::uint64_t root_frame_ = 0;
    std::uint64_t node_count_ = 0;
};

}  // namespace ptm::pt
