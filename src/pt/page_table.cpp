#include "pt/page_table.hpp"

#include "common/error.hpp"
#include "common/log.hpp"

namespace ptm::pt {

PageTable::PageTable(FrameSource frames) : frames_(std::move(frames))
{
    if (!frames_.allocate || !frames_.release)
        ptm_fatal("page table requires a complete frame source");
    root_ = make_node();
    if (!root_) {
        // Recoverable: booting a table into an exhausted frame pool is an
        // admission failure (caller's host may be overcommitted), not a
        // programming error.
        ptm_throw("cannot allocate page-table root node: frame source "
                  "exhausted");
    }
}

PageTable::~PageTable()
{
    release_node(root_.get(), 0);
    root_.reset();
}

std::unique_ptr<PageTable::Node>
PageTable::make_node()
{
    std::optional<std::uint64_t> frame = frames_.allocate();
    if (!frame)
        return nullptr;
    auto node = std::make_unique<Node>();
    node->frame = *frame;
    ++node_count_;
    return node;
}

void
PageTable::release_node(Node *node, unsigned level)
{
    if (node == nullptr)
        return;
    if (level + 1 < kPtLevels) {
        for (auto &slot : node->slots)
            release_node(slot.child.get(), level + 1);
    }
    frames_.release(node->frame);
    --node_count_;
}

const PageTable::Node *
PageTable::descend(std::uint64_t vpn, unsigned to_level) const
{
    const Node *node = root_.get();
    for (unsigned level = 0; level < to_level; ++level) {
        unsigned index = index_at(vpn, level);
        node = node->slots[index].child.get();
        if (node == nullptr)
            return nullptr;
    }
    return node;
}

bool
PageTable::map(std::uint64_t vpn, const PteFields &fields)
{
    Node *node = root_.get();
    for (unsigned level = 0; level + 1 < kPtLevels; ++level) {
        unsigned index = index_at(vpn, level);
        if (!node->slots[index].child) {
            std::unique_ptr<Node> child = make_node();
            if (!child)
                return false;
            // Non-leaf entries point at the child node's frame.
            node->slots[index].pte =
                Pte::encode({.present = true, .frame = child->frame});
            node->slots[index].child = std::move(child);
        }
        node = node->slots[index].child.get();
    }
    unsigned leaf_index = index_at(vpn, kPtLevels - 1);
    PteFields with_present = fields;
    with_present.present = true;
    node->slots[leaf_index].pte = Pte::encode(with_present);
    return true;
}

void
PageTable::unmap(std::uint64_t vpn)
{
    Node *node = root_.get();
    for (unsigned level = 0; level + 1 < kPtLevels; ++level) {
        node = node->slots[index_at(vpn, level)].child.get();
        if (node == nullptr)
            return;
    }
    Slot &leaf = node->slots[index_at(vpn, kPtLevels - 1)];
    if (leaf.pte.present())
        leaf.pte = Pte{};
}

std::optional<Pte>
PageTable::lookup(std::uint64_t vpn) const
{
    const Node *node = descend(vpn, kPtLevels - 1);
    if (node == nullptr)
        return std::nullopt;
    Pte pte = node->slots[index_at(vpn, kPtLevels - 1)].pte;
    if (!pte.present())
        return std::nullopt;
    return pte;
}

bool
PageTable::update(std::uint64_t vpn, const PteFields &fields)
{
    Node *node = root_.get();
    for (unsigned level = 0; level + 1 < kPtLevels; ++level) {
        node = node->slots[index_at(vpn, level)].child.get();
        if (node == nullptr)
            return false;
    }
    PteFields with_present = fields;
    with_present.present = true;
    node->slots[index_at(vpn, kPtLevels - 1)].pte =
        Pte::encode(with_present);
    return true;
}

WalkResult
PageTable::walk(std::uint64_t vpn, WalkSteps &steps) const
{
    const Node *node = root_.get();
    unsigned count = 0;
    for (unsigned level = 0; level < kPtLevels; ++level) {
        unsigned index = index_at(vpn, level);
        const Slot &slot = node->slots[index];
        WalkStep &step = steps[count++];
        step.level = level;
        step.node_frame = node->frame;
        step.index = index;
        step.entry_paddr = node->frame * kPageSize + index * kPteSize;
        step.pte = slot.pte;
        if (!step.pte.present())
            break;
        if (level + 1 < kPtLevels) {
            node = slot.child.get();
            if (node == nullptr) {
                // Present intermediate entry must have a child node.
                ptm_panic("present non-leaf entry without child node");
            }
        }
    }
    return WalkResult{
        .steps = count,
        .complete = count == kPtLevels && steps[count - 1].pte.present(),
    };
}

std::optional<Addr>
PageTable::leaf_entry_paddr(std::uint64_t vpn) const
{
    const Node *node = descend(vpn, kPtLevels - 1);
    if (node == nullptr)
        return std::nullopt;
    unsigned index = index_at(vpn, kPtLevels - 1);
    return node->frame * kPageSize + index * kPteSize;
}

}  // namespace ptm::pt
