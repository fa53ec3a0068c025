/**
 * @file
 * Cross-module property tests: randomized traces checked against simple
 * reference models (executable specifications).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <list>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/part.hpp"
#include "mem/buddy_allocator.hpp"
#include "tlb/assoc_cache.hpp"
#include "vm/virtual_address_space.hpp"

namespace ptm {
namespace {

/// Reference model for a set-associative LRU cache: per-set std::list in
/// recency order.
class ReferenceLru {
  public:
    ReferenceLru(unsigned sets, unsigned ways) : sets_(sets), ways_(ways),
                                                 lists_(sets)
    {
    }

    std::optional<std::uint64_t>
    lookup(std::uint64_t key)
    {
        auto &list = lists_[key % sets_];
        for (auto it = list.begin(); it != list.end(); ++it) {
            if (it->first == key) {
                auto entry = *it;
                list.erase(it);
                list.push_front(entry);
                return entry.second;
            }
        }
        return std::nullopt;
    }

    void
    insert(std::uint64_t key, std::uint64_t value)
    {
        auto &list = lists_[key % sets_];
        for (auto it = list.begin(); it != list.end(); ++it) {
            if (it->first == key) {
                list.erase(it);
                break;
            }
        }
        list.emplace_front(key, value);
        if (list.size() > ways_)
            list.pop_back();
    }

    void
    invalidate(std::uint64_t key)
    {
        auto &list = lists_[key % sets_];
        list.remove_if([key](const auto &e) { return e.first == key; });
    }

  private:
    unsigned sets_;
    unsigned ways_;
    std::vector<std::list<std::pair<std::uint64_t, std::uint64_t>>> lists_;
};

class AssocCacheProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AssocCacheProperty, MatchesReferenceLru)
{
    constexpr unsigned kEntries = 64;
    constexpr unsigned kWays = 4;
    tlb::AssocCache<std::uint64_t> cache(kEntries, kWays);
    ReferenceLru reference(kEntries / kWays, kWays);
    Rng rng(GetParam());

    for (int step = 0; step < 20000; ++step) {
        std::uint64_t key = rng.below(256);
        double action = rng.uniform();
        if (action < 0.45) {
            std::uint64_t value = rng.below(1u << 20);
            cache.insert(key, value);
            reference.insert(key, value);
        } else if (action < 0.9) {
            auto got = cache.lookup(key);
            auto expected = reference.lookup(key);
            ASSERT_EQ(got.has_value(), expected.has_value())
                << "key " << key << " at step " << step;
            if (got) {
                ASSERT_EQ(*got, *expected);
            }
        } else {
            cache.invalidate(key);
            reference.invalidate(key);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssocCacheProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

class PartProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartProperty, MatchesReferenceReservationMap)
{
    core::Part part;
    struct RefEntry {
        std::uint64_t base = 0;
        std::uint32_t mask = 0;
    };
    std::map<std::uint64_t, RefEntry> reference;
    Rng rng(GetParam());
    std::uint64_t next_base = 1000;
    // Windows of 128 groups that straddle a level-3 node boundary (512),
    // a level-2 one (1 << 18) and a root slot boundary (1 << 27).
    constexpr std::uint64_t kWindows[] = {0, 448, (1ull << 18) - 64,
                                          (1ull << 27) - 64};

    for (int step = 0; step < 30000; ++step) {
        std::uint64_t group = kWindows[rng.below(std::size(kWindows))] +
                              rng.below(128);
        unsigned offset = static_cast<unsigned>(rng.below(8));
        auto ref = reference.find(group);
        double action = rng.uniform();

        if (action < 0.5) {  // fault path
            core::ClaimResult claim = part.claim(group, offset);
            if (ref == reference.end()) {
                ASSERT_FALSE(claim.found);
                std::uint64_t base = next_base;
                next_base += 8;
                ASSERT_EQ(part.create(group, base, offset), base + offset);
                reference[group] = {base, 1u << offset};
            } else if (ref->second.mask & (1u << offset)) {
                ASSERT_TRUE(claim.found);
                ASSERT_TRUE(claim.already_mapped);
            } else {
                ASSERT_TRUE(claim.found);
                ASSERT_FALSE(claim.already_mapped);
                ASSERT_EQ(claim.gfn, ref->second.base + offset);
                ref->second.mask |= 1u << offset;
                if (ref->second.mask == 0xff) {
                    ASSERT_TRUE(claim.deleted_full);
                    reference.erase(ref);
                }
            }
        } else if (action < 0.8) {  // free path
            bool missing = ref == reference.end();
            bool bit_set =
                !missing && (ref->second.mask & (1u << offset));
            if (!missing && !bit_set) {
                // Releasing an unmapped bit of a live entry violates the
                // API contract (the kernel never does it); skip.
                continue;
            }
            core::ReleaseResult released = part.release(group, offset);
            if (missing) {
                ASSERT_FALSE(released.found);
                continue;
            }
            ASSERT_TRUE(released.found);
            ref->second.mask &= ~(1u << offset);
            ASSERT_EQ(released.final_mask, ref->second.mask);
            if (ref->second.mask == 0) {
                ASSERT_TRUE(released.deleted_empty);
                ASSERT_EQ(released.base_gfn, ref->second.base);
                reference.erase(ref);
            }
        } else {  // read path
            auto view = part.find(group);
            if (ref == reference.end()) {
                ASSERT_FALSE(view.has_value());
            } else {
                ASSERT_TRUE(view.has_value());
                ASSERT_EQ(view->base_gfn, ref->second.base);
                ASSERT_EQ(view->mask, ref->second.mask);
            }
        }

        // Aggregate gauges must track the reference exactly.
        if (step % 512 == 0) {
            std::uint64_t unmapped = 0;
            for (const auto &[g, entry] : reference)
                unmapped += 8 - std::popcount(entry.mask);
            ASSERT_EQ(part.live_reservations(), reference.size());
            ASSERT_EQ(part.unmapped_reserved_pages(), unmapped);
        }
    }

    // Drain hands every entry back in ascending group order.
    std::vector<core::ReservationView> drained;
    part.drain([&](const core::ReservationView &view) {
        drained.push_back(view);
    });
    ASSERT_EQ(drained.size(), reference.size());
    std::size_t i = 0;
    for (const auto &[group, entry] : reference) {
        ASSERT_EQ(drained[i].group, group) << i;
        ASSERT_EQ(drained[i].base_gfn, entry.base) << i;
        ASSERT_EQ(drained[i].mask, entry.mask) << i;
        ++i;
    }
    ASSERT_EQ(part.live_reservations(), 0u);
    ASSERT_EQ(part.unmapped_reserved_pages(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartProperty,
                         ::testing::Values(7, 14, 21, 28));

class BuddySplitProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(BuddySplitProperty, SplitChunksAreAlignedDisjointAndReFreeable)
{
    const unsigned order = GetParam();
    mem::BuddyAllocator buddy(0, 1u << 14);
    std::vector<std::uint64_t> bases;
    while (auto base = buddy.allocate_split(order)) {
        EXPECT_EQ(*base % (1u << order), 0u);
        bases.push_back(*base);
    }
    EXPECT_EQ(bases.size(), (1u << 14) >> order);
    std::sort(bases.begin(), bases.end());
    for (std::size_t i = 1; i < bases.size(); ++i)
        EXPECT_EQ(bases[i], bases[i - 1] + (1u << order));
    // Free every chunk page-by-page in shuffled order; full coalesce.
    Rng rng(99);
    std::vector<std::uint64_t> frames;
    for (std::uint64_t base : bases) {
        for (unsigned i = 0; i < (1u << order); ++i)
            frames.push_back(base + i);
    }
    for (std::size_t i = frames.size(); i > 1; --i)
        std::swap(frames[i - 1], frames[rng.below(i)]);
    for (std::uint64_t frame : frames)
        buddy.free(frame);
    buddy.check_invariants();
    EXPECT_TRUE(buddy.allocate(mem::BuddyAllocator::kMaxOrder).has_value());
}

INSTANTIATE_TEST_SUITE_P(Orders, BuddySplitProperty,
                         ::testing::Values(1, 2, 3, 4, 9));

class VasProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VasProperty, RandomMmapMunmapKeepsRegionsConsistent)
{
    vm::VirtualAddressSpace vas;
    std::map<Addr, Addr> reference;  // base -> pages
    Rng rng(GetParam());

    for (int step = 0; step < 3000; ++step) {
        if (reference.empty() || rng.chance(0.6)) {
            Addr pages = rng.between(1, 64);
            Addr base = vas.mmap(pages * kPageSize);
            EXPECT_EQ(base % kPageSize, 0u);
            reference[base] = pages;
        } else {
            auto it = reference.begin();
            std::advance(it, rng.below(reference.size()));
            auto vma = vas.munmap(it->first);
            ASSERT_TRUE(vma.has_value());
            EXPECT_EQ(vma->pages(), it->second);
            reference.erase(it);
        }

        if (step % 256 == 0) {
            std::uint64_t total = 0;
            for (const auto &[base, pages] : reference) {
                total += pages;
                EXPECT_TRUE(vas.is_mapped(page_number(base)));
                EXPECT_TRUE(
                    vas.is_mapped(page_number(base) + pages - 1));
                EXPECT_FALSE(vas.is_mapped(page_number(base) + pages));
            }
            EXPECT_EQ(vas.total_pages(), total);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VasProperty,
                         ::testing::Values(3, 6, 9));

}  // namespace
}  // namespace ptm
