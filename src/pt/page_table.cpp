#include "pt/page_table.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"
#include "common/log.hpp"

namespace ptm::pt {

/**
 * Interior node: each entry pairs the PTE with the owning pointer to its
 * child, adjacent so a walk step reads the entry and follows the child
 * from the same host cache line. The PTE is written once, when the child
 * is created, and does not change until the table is destroyed. Above
 * level 2 a present entry always has its child; at level 2 the child is
 * null once unmap_range() emptied the leaf, and is re-created, on the
 * same frame, by the next write into it.
 */
template <unsigned Level>
struct PageTable::Node {
    static constexpr unsigned kLevel = Level;

    std::array<Slot<Node<Level + 1>>, kFanout> slots{};
};

/// Leaf node: the 512 PTEs alone, one simulated frame's worth of bytes.
template <>
struct PageTable::Node<kPtLevels - 1> {
    static constexpr unsigned kLevel = kPtLevels - 1;

    std::array<Pte, kFanout> ptes{};
};

namespace {

/**
 * @p slot's child, created when missing; nullptr when the frame source is
 * exhausted. A present entry without a child is an emptied leaf, whose
 * frame is still allocated: only its host copy is re-created.
 */
template <class Slot>
auto *
child_or_new(Slot &slot, const FrameSource &frames, std::uint64_t &nodes)
{
    using Child = typename decltype(Slot::child)::element_type;
    if (!slot.child) {
        if (!slot.pte.present()) {
            std::optional<std::uint64_t> frame = frames.allocate();
            if (!frame)
                return static_cast<Child *>(nullptr);
            // The entry is the only record of the child's frame.
            if (*frame > (Pte::kFrameMask >> kPageShift))
                ptm_panic("page-table node frame %llu does not fit a PTE",
                          static_cast<unsigned long long>(*frame));
            slot.pte = Pte::encode({.present = true, .frame = *frame});
            ++nodes;
        }
        slot.child = std::make_unique<Child>();
    }
    return slot.child.get();
}

/// Return the frames of @p node (at @p frame) and everything under it,
/// children in index order before their parent. A leaf's frame goes back
/// whether or not it has a host copy.
template <class Node>
void
release_subtree(const Node &node, std::uint64_t frame,
                const FrameSource &frames)
{
    if constexpr (Node::kLevel + 1 < kPtLevels) {
        for (const auto &slot : node.slots) {
            if (!slot.pte.present())
                continue;
            if constexpr (Node::kLevel + 2 < kPtLevels)
                release_subtree(*slot.child, slot.pte.frame(), frames);
            else
                frames.release(slot.pte.frame());
        }
    }
    frames.release(frame);
}

/// Record the walk steps from @p node (at @p frame) down; returns the
/// step count. A null @p node is an emptied leaf: all its entries are
/// empty.
template <class Node>
unsigned
walk_from(const Node *node, std::uint64_t frame, std::uint64_t vpn,
          WalkSteps &steps)
{
    constexpr unsigned level = Node::kLevel;
    const unsigned index = PageTable::index_at(vpn, level);
    WalkStep &step = steps[level];
    step.level = level;
    step.node_frame = frame;
    step.index = index;
    step.entry_paddr = frame * kPageSize + index * kPteSize;
    if constexpr (level + 1 == kPtLevels) {
        step.pte = node != nullptr ? node->ptes[index] : Pte{};
        return kPtLevels;
    } else {
        const auto &slot = node->slots[index];
        step.pte = slot.pte;
        if (!slot.pte.present())
            return level + 1;
        return walk_from(slot.child.get(), slot.pte.frame(), vpn, steps);
    }
}

}  // namespace

PageTable::PageTable(FrameSource frames) : frames_(std::move(frames))
{
    static_assert(sizeof(Leaf) == kPageSize,
                  "a leaf is exactly the frame it simulates");
    if (!frames_.allocate || !frames_.release)
        ptm_fatal("page table requires a complete frame source");
    std::optional<std::uint64_t> root = frames_.allocate();
    if (!root) {
        // Recoverable: booting a table into an exhausted frame pool is an
        // admission failure (caller's host may be overcommitted), not a
        // programming error.
        ptm_throw("cannot allocate page-table root node: frame source "
                  "exhausted");
    }
    root_ = std::make_unique<Node<0>>();
    root_frame_ = *root;
    node_count_ = 1;
}

PageTable::~PageTable()
{
    release_subtree(*root_, root_frame_, frames_);
}

PageTable::Slot<PageTable::Leaf> *
PageTable::leaf_slot(std::uint64_t vpn) const
{
    const auto &top = root_->slots[index_at(vpn, 0)];
    if (!top.child)
        return nullptr;
    const auto &mid = top.child->slots[index_at(vpn, 1)];
    if (!mid.child)
        return nullptr;
    return &mid.child->slots[index_at(vpn, 2)];
}

bool
PageTable::map(std::uint64_t vpn, const PteFields &fields)
{
    auto *mid = child_or_new(root_->slots[index_at(vpn, 0)], frames_,
                             node_count_);
    if (mid == nullptr)
        return false;
    auto *low = child_or_new(mid->slots[index_at(vpn, 1)], frames_,
                             node_count_);
    if (low == nullptr)
        return false;
    Leaf *leaf = child_or_new(low->slots[index_at(vpn, 2)], frames_,
                              node_count_);
    if (leaf == nullptr)
        return false;
    PteFields with_present = fields;
    with_present.present = true;
    leaf->ptes[index_at(vpn, kPtLevels - 1)] = Pte::encode(with_present);
    return true;
}

void
PageTable::unmap(std::uint64_t vpn)
{
    Slot<Leaf> *slot = leaf_slot(vpn);
    if (slot != nullptr && slot->child)
        slot->child->ptes[index_at(vpn, kPtLevels - 1)] = Pte{};
}

void
PageTable::unmap_range(std::uint64_t begin_vpn, std::uint64_t end_vpn,
                       const UnmapCallback &on_unmapped)
{
    std::uint64_t vpn = begin_vpn;
    while (vpn < end_vpn) {
        // This leaf's part of the range, written so that no sum can wrap.
        const std::uint64_t stop =
            vpn + std::min<std::uint64_t>(end_vpn - vpn,
                                          kFanout - (vpn & (kFanout - 1)));
        Slot<Leaf> *slot = leaf_slot(vpn);
        if (slot == nullptr || !slot->child) {
            vpn = stop;
            continue;
        }
        std::array<Pte, kFanout> &ptes = slot->child->ptes;
        for (; vpn < stop; ++vpn) {
            Pte &entry = ptes[vpn & (kFanout - 1)];
            if (!entry.present())
                continue;
            const Pte old = entry;
            entry = Pte{};
            on_unmapped(vpn, old);
        }
        std::uint64_t any = 0;
        for (Pte pte : ptes)
            any |= pte.raw();
        if (any == 0)
            slot->child.reset();
    }
}

std::optional<Pte>
PageTable::lookup(std::uint64_t vpn) const
{
    const Slot<Leaf> *slot = leaf_slot(vpn);
    if (slot == nullptr || !slot->child)
        return std::nullopt;
    Pte pte = slot->child->ptes[index_at(vpn, kPtLevels - 1)];
    if (!pte.present())
        return std::nullopt;
    return pte;
}

bool
PageTable::update(std::uint64_t vpn, const PteFields &fields)
{
    Slot<Leaf> *slot = leaf_slot(vpn);
    if (slot == nullptr || !slot->pte.present())
        return false;
    if (!slot->child)
        slot->child = std::make_unique<Leaf>();
    PteFields with_present = fields;
    with_present.present = true;
    slot->child->ptes[index_at(vpn, kPtLevels - 1)] =
        Pte::encode(with_present);
    return true;
}

std::uint64_t
PageTable::leaf_copies() const
{
    std::uint64_t copies = 0;
    for (const auto &top : root_->slots) {
        if (!top.child)
            continue;
        for (const auto &mid : top.child->slots) {
            if (!mid.child)
                continue;
            for (const auto &low : mid.child->slots)
                copies += low.child != nullptr;
        }
    }
    return copies;
}

WalkResult
PageTable::walk(std::uint64_t vpn, WalkSteps &steps) const
{
    const unsigned count = walk_from(root_.get(), root_frame_, vpn, steps);
    return WalkResult{
        .steps = count,
        .complete = count == kPtLevels && steps[count - 1].pte.present(),
    };
}

std::optional<Addr>
PageTable::leaf_entry_paddr(std::uint64_t vpn) const
{
    const Slot<Leaf> *slot = leaf_slot(vpn);
    if (slot == nullptr || !slot->pte.present())
        return std::nullopt;
    return slot->pte.frame() * kPageSize +
           index_at(vpn, kPtLevels - 1) * kPteSize;
}

}  // namespace ptm::pt
