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
 * the table keeps only the root's.
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

    /// Remove a translation. Nodes are never freed before the table is:
    /// an emptied node keeps its frame until the process exits (Linux
    /// would free it at munmap; see ROADMAP.md).
    void unmap(std::uint64_t vpn) override;

    /// Current leaf entry for @p vpn, if the whole path exists.
    std::optional<Pte> lookup(std::uint64_t vpn) const override;

    /// Overwrite the leaf entry for an existing mapping (e.g. COW resolve).
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

    /// A leaf node and its frame, read from the parent entry.
    struct LeafRef {
        Leaf *leaf = nullptr;
        std::uint64_t frame = 0;
    };

    /// The leaf covering @p vpn; a null leaf when its path is incomplete.
    LeafRef find_leaf(std::uint64_t vpn) const;

    FrameSource frames_;
    std::unique_ptr<Node<0>> root_;
    std::uint64_t root_frame_ = 0;
    std::uint64_t node_count_ = 0;
};

}  // namespace ptm::pt
