/**
 * @file
 * Four-level radix page table with physically-addressed nodes.
 *
 * Each node is one 4 KiB frame of 512 eight-byte entries, obtained from a
 * caller-supplied frame source (the guest or host buddy allocator), so the
 * *physical placement* of every PTE — the thing the paper's cache-footprint
 * argument is about — is exact: the entry for virtual page v at the leaf
 * level lives at byte address node_frame*4096 + (v & 511)*8.
 */
#pragma once

#include <array>
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

    /// Remove a translation; empty intermediate nodes are kept (as Linux
    /// does — PT pages are only freed at exit/unmap of whole regions).
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
    std::uint64_t root_frame() const override { return root_->frame; }

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
    struct Node;

    /// One radix entry: the PTE together with (for non-leaf nodes) the
    /// owning pointer to the child node. Keeping them adjacent means a
    /// walk step reads the entry and follows the child from the same
    /// host cache line, instead of hopping between two arrays 4 KiB
    /// apart.
    struct Slot {
        Pte pte;
        std::unique_ptr<Node> child;
    };

    struct Node {
        std::uint64_t frame = 0;
        std::array<Slot, kFanout> slots{};
    };

    std::unique_ptr<Node> make_node();
    void release_node(Node *node, unsigned level);
    const Node *descend(std::uint64_t vpn, unsigned to_level) const;

    FrameSource frames_;
    std::unique_ptr<Node> root_;
    std::uint64_t node_count_ = 0;
};

}  // namespace ptm::pt
