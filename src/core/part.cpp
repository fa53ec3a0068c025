#include "core/part.hpp"

#include <array>
#include <bit>
#include <limits>

#include "common/log.hpp"

namespace ptm::core {

/**
 * Radix node, 4 KiB at every level: 512 child pointers, or at level 3
 * 512 eight-byte entries. Nodes are created on demand and live as long
 * as the tree; a reservation occupies an entry of its level-3 node, so
 * creating or deleting one allocates and frees nothing.
 */
template <unsigned Level>
struct Part::Node {
    std::array<std::unique_ptr<Node<Level + 1>>, kFanout> children;
};

template <>
struct Part::Node<Part::kLevels - 1> {
    std::array<Entry, kFanout> entries;
};

namespace {

unsigned
index_at(std::uint64_t group, unsigned level)
{
    unsigned shift = Part::kBitsPerLevel * (Part::kLevels - 1 - level);
    return static_cast<unsigned>((group >> shift) &
                                 (Part::kFanout - 1));
}

template <class Child>
Child &
child_or_new(std::unique_ptr<Child> &slot)
{
    if (!slot)
        slot = std::make_unique<Child>();
    return *slot;
}

/**
 * Call @p fn(leaf, prefix) for every level-3 node under @p node in
 * ascending group order; the leaf's entry i is the group
 * (prefix << kBitsPerLevel) | i.
 */
template <class Node, class Fn>
void
for_each_leaf(Node &node, std::uint64_t prefix, const Fn &fn)
{
    if constexpr (requires { node.entries; }) {
        fn(node, prefix);
    } else {
        for (unsigned i = 0; i < Part::kFanout; ++i) {
            if (node.children[i]) {
                for_each_leaf(*node.children[i],
                              (prefix << Part::kBitsPerLevel) | i, fn);
            }
        }
    }
}

}  // namespace

Part::Part(unsigned pages_per_group)
    : root_(std::make_unique<Node<0>>()), pages_per_group_(pages_per_group),
      full_mask_(pages_per_group == 32
                     ? ~std::uint32_t{0}
                     : (std::uint32_t{1} << pages_per_group) - 1)
{
    if (pages_per_group < 2 || pages_per_group > 32)
        ptm_fatal("pages_per_group %u out of range [2, 32]",
                  pages_per_group);
}

Part::~Part() = default;

Part::Entry *
Part::live_entry(std::uint64_t group) const
{
    Node<1> *mid = root_->children[index_at(group, 0)].get();
    if (mid == nullptr)
        return nullptr;
    Node<2> *low = mid->children[index_at(group, 1)].get();
    if (low == nullptr)
        return nullptr;
    Node<3> *leaf = low->children[index_at(group, 2)].get();
    if (leaf == nullptr)
        return nullptr;
    Entry &entry = leaf->entries[index_at(group, 3)];
    return entry.mask != 0 ? &entry : nullptr;
}

ClaimResult
Part::claim(std::uint64_t group, unsigned offset)
{
    ptm_assert(offset < pages_per_group_);
    Entry *entry = live_entry(group);
    if (entry == nullptr)
        return {};

    ClaimResult result;
    result.found = true;
    result.gfn = std::uint64_t{entry->base_gfn} + offset;
    std::uint32_t bit = std::uint32_t{1} << offset;
    if (entry->mask & bit) {
        // A refault of a page the reservation already handed out: report
        // its frame (the kernel sees an already present PTE).
        result.already_mapped = true;
        return result;
    }

    entry->mask |= bit;
    --unmapped_reserved_;
    if (entry->mask == full_mask_) {
        // Every page of the group is mapped: the entry is no longer
        // needed and can be safely deleted (§4.2).
        *entry = {};
        --live_reservations_;
        result.deleted_full = true;
    }
    return result;
}

std::uint64_t
Part::create(std::uint64_t group, std::uint64_t base_gfn, unsigned offset)
{
    ptm_assert(offset < pages_per_group_);
    if (base_gfn > std::numeric_limits<std::uint32_t>::max())
        ptm_panic("PaRT: base gfn %llu of group %llu overflows the 32-bit "
                  "entry",
                  static_cast<unsigned long long>(base_gfn),
                  static_cast<unsigned long long>(group));

    Node<1> &mid = child_or_new(root_->children[index_at(group, 0)]);
    Node<2> &low = child_or_new(mid.children[index_at(group, 1)]);
    Node<3> &leaf = child_or_new(low.children[index_at(group, 2)]);
    Entry &entry = leaf.entries[index_at(group, 3)];
    if (entry.mask != 0) {
        ptm_panic("create over a live reservation for group %llu",
                  static_cast<unsigned long long>(group));
    }

    entry = {static_cast<std::uint32_t>(base_gfn),
             std::uint32_t{1} << offset};
    ++live_reservations_;
    unmapped_reserved_ += pages_per_group_ - 1;
    return base_gfn + offset;
}

ReleaseResult
Part::release(std::uint64_t group, unsigned offset)
{
    ptm_assert(offset < pages_per_group_);
    Entry *entry = live_entry(group);
    if (entry == nullptr)
        return {};

    std::uint32_t bit = std::uint32_t{1} << offset;
    if (!(entry->mask & bit)) {
        // Releasing a page the reservation never handed out: kernel-model
        // bookkeeping error.
        ptm_panic("release of unmapped page %u in group %llu", offset,
                  static_cast<unsigned long long>(group));
    }

    ReleaseResult result;
    result.found = true;
    entry->mask &= ~bit;
    result.final_mask = entry->mask;
    ++unmapped_reserved_;
    if (entry->mask == 0) {
        // Application freed every page it had: drop the reservation and
        // hand the whole chunk back (§4.3, case 1).
        result.deleted_empty = true;
        result.base_gfn = entry->base_gfn;
        *entry = {};
        --live_reservations_;
        unmapped_reserved_ -= pages_per_group_;
    }
    return result;
}

std::optional<ReservationView>
Part::find(std::uint64_t group) const
{
    const Entry *entry = live_entry(group);
    if (entry == nullptr)
        return std::nullopt;
    return ReservationView{group, entry->base_gfn, entry->mask};
}

void
Part::drain(const std::function<void(const ReservationView &)> &fn)
{
    for_each_leaf(*root_, 0, [&](Node<kLevels - 1> &leaf,
                                 std::uint64_t prefix) {
        for (unsigned i = 0; i < kFanout; ++i) {
            Entry &entry = leaf.entries[i];
            if (entry.mask == 0)
                continue;
            ReservationView view{(prefix << kBitsPerLevel) | i,
                                 entry.base_gfn, entry.mask};
            entry = {};
            --live_reservations_;
            unmapped_reserved_ -= pages_per_group_ -
                                  static_cast<unsigned>(
                                      std::popcount(view.mask));
            fn(view);
        }
    });
}

}  // namespace ptm::core
