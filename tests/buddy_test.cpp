/**
 * @file
 * Unit and property tests for the binary buddy allocator — the substrate
 * whose allocation-order behaviour drives the paper's fragmentation story.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "mem/buddy_allocator.hpp"
#include "mem/physical_memory.hpp"

namespace ptm::mem {
namespace {

TEST(Buddy, FreshZoneServesAscendingContiguousFrames)
{
    // §2.4 baseline: a single allocator client receives contiguous
    // physical pages, preserving virtual-space locality.
    BuddyAllocator buddy(0, 4096);
    for (std::uint64_t i = 0; i < 2048; ++i) {
        auto frame = buddy.allocate_frame();
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(*frame, i);
    }
}

TEST(Buddy, LifoReuseOfFreedFrames)
{
    // Linux free lists are LIFO: the most recently freed page is handed
    // out first — the mechanism by which co-runner churn scatters a
    // victim's allocations.
    BuddyAllocator buddy(0, 1024);
    auto a = buddy.allocate_frame();
    auto b = buddy.allocate_frame();
    auto c = buddy.allocate_frame();
    ASSERT_TRUE(a && b && c);
    buddy.free(*a);
    buddy.free(*b);
    // a(0) and b(1) coalesce into an order-1 block. The order-0 list still
    // holds frame 3 (left over from c's split), which is preferred over
    // splitting the coalesced block; the block is split only afterwards.
    ASSERT_TRUE(c);
    EXPECT_EQ(*buddy.allocate_frame(), 3u);
    EXPECT_EQ(*buddy.allocate_frame(), 0u);
    EXPECT_EQ(*buddy.allocate_frame(), 1u);
}

TEST(Buddy, LifoReuseWithoutCoalesce)
{
    BuddyAllocator buddy(0, 1024);
    std::vector<std::uint64_t> frames;
    for (int i = 0; i < 8; ++i)
        frames.push_back(*buddy.allocate_frame());
    // Free two non-buddy frames: 1 then 4. 4 freed last => returned first.
    buddy.free(frames[1]);
    buddy.free(frames[4]);
    EXPECT_EQ(*buddy.allocate_frame(), frames[4]);
    EXPECT_EQ(*buddy.allocate_frame(), frames[1]);
}

TEST(Buddy, HighOrderAllocationIsAligned)
{
    BuddyAllocator buddy(0, 4096);
    buddy.allocate_frame();  // disturb alignment
    auto block = buddy.allocate(3);
    ASSERT_TRUE(block);
    EXPECT_EQ(*block % 8, 0u) << "order-3 block must be 8-frame aligned";
}

TEST(Buddy, FullCoalesceRestoresMaxOrderBlocks)
{
    BuddyAllocator buddy(0, 2048);
    std::vector<std::uint64_t> frames;
    for (int i = 0; i < 2048; ++i)
        frames.push_back(*buddy.allocate_frame());
    EXPECT_FALSE(buddy.allocate_frame().has_value());
    for (std::uint64_t f : frames)
        buddy.free(f);
    EXPECT_EQ(buddy.free_frames_count(), 2048u);
    // Everything must have coalesced back to two 1024-frame blocks.
    EXPECT_EQ(buddy.free_blocks_at_order(BuddyAllocator::kMaxOrder), 2u);
    buddy.check_invariants();
}

TEST(Buddy, ExhaustionReturnsNullopt)
{
    BuddyAllocator buddy(0, 16);
    for (int i = 0; i < 16; ++i)
        ASSERT_TRUE(buddy.allocate_frame());
    EXPECT_FALSE(buddy.allocate_frame().has_value());
    EXPECT_EQ(buddy.stats().failed_allocs.value(), 1u);
}

TEST(Buddy, CanAllocateTracksFragmentation)
{
    BuddyAllocator buddy(0, 16);
    std::vector<std::uint64_t> frames;
    for (int i = 0; i < 16; ++i)
        frames.push_back(*buddy.allocate_frame());
    // Free every other frame: 8 frames free but no order-1 block.
    for (int i = 0; i < 16; i += 2)
        buddy.free(frames[i]);
    EXPECT_EQ(buddy.free_frames_count(), 8u);
    EXPECT_TRUE(buddy.can_allocate(0));
    EXPECT_FALSE(buddy.can_allocate(1));
    EXPECT_FALSE(buddy.allocate(3).has_value());
}

TEST(Buddy, AllocateSplitFreesIndividually)
{
    BuddyAllocator buddy(0, 64);
    auto base = buddy.allocate_split(3);
    ASSERT_TRUE(base);
    // Every frame of the chunk is individually freeable.
    for (unsigned i = 0; i < 8; ++i)
        buddy.free(*base + i);
    EXPECT_EQ(buddy.free_frames_count(), 64u);
    buddy.check_invariants();
    // And the chunk coalesced back: an order-3 allocation succeeds again.
    EXPECT_TRUE(buddy.allocate(3).has_value());
}

TEST(Buddy, NonPowerOfTwoRange)
{
    BuddyAllocator buddy(0, 1000);
    std::uint64_t total = 0;
    while (auto f = buddy.allocate_frame()) {
        ++total;
        (void)f;
    }
    EXPECT_EQ(total, 1000u);
}

TEST(Buddy, NonZeroBaseFrame)
{
    BuddyAllocator buddy(5000, 512);
    auto f = buddy.allocate_frame();
    ASSERT_TRUE(f);
    EXPECT_GE(*f, 5000u);
    EXPECT_LT(*f, 5512u);
    auto block = buddy.allocate(3);
    ASSERT_TRUE(block);
    EXPECT_EQ((*block - 5000) % 8, 0u)
        << "alignment is relative to the zone base";
    buddy.check_invariants();
}

/// Property test: randomized alloc/free traces keep all invariants and
/// never hand out overlapping blocks.
class BuddyPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BuddyPropertyTest, RandomTraceKeepsInvariants)
{
    Rng rng(GetParam());
    const std::uint64_t frames = 1u << 12;
    BuddyAllocator buddy(0, frames);
    std::vector<std::pair<std::uint64_t, unsigned>> live;  // base, order
    std::vector<bool> owned(frames, false);

    for (int step = 0; step < 4000; ++step) {
        bool do_alloc = live.empty() || rng.chance(0.55);
        if (do_alloc) {
            unsigned order = static_cast<unsigned>(rng.below(4));
            auto block = buddy.allocate(order);
            if (!block)
                continue;
            std::uint64_t size = 1ull << order;
            ASSERT_EQ(*block % size, 0u);
            for (std::uint64_t i = 0; i < size; ++i) {
                ASSERT_FALSE(owned[*block + i])
                    << "allocator handed out an owned frame";
                owned[*block + i] = true;
            }
            live.emplace_back(*block, order);
        } else {
            std::size_t idx = rng.below(live.size());
            auto [base, order] = live[idx];
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
            buddy.free(base);
            for (std::uint64_t i = 0; i < (1ull << order); ++i)
                owned[base + i] = false;
        }
        if (step % 512 == 0)
            buddy.check_invariants();
    }

    for (auto [base, order] : live) {
        (void)order;
        buddy.free(base);
    }
    EXPECT_EQ(buddy.free_frames_count(), frames);
    buddy.check_invariants();
    EXPECT_EQ(buddy.free_blocks_at_order(BuddyAllocator::kMaxOrder),
              frames >> BuddyAllocator::kMaxOrder);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(PhysicalMemory, UseTracking)
{
    PhysicalMemory mem(0, 128);
    EXPECT_EQ(mem.count_use(FrameUse::Free), 128u);
    mem.set_use(10, 4, FrameUse::Data, 7);
    EXPECT_EQ(mem.count_use(FrameUse::Data), 4u);
    EXPECT_EQ(mem.count_use(FrameUse::Data, 7), 4u);
    EXPECT_EQ(mem.count_use(FrameUse::Data, 8), 0u);
    EXPECT_EQ(mem.info(11).owner(), 7);
    mem.set_use(10, 4, FrameUse::Free);
    EXPECT_EQ(mem.count_use(FrameUse::Free), 128u);
    EXPECT_EQ(mem.info(11).owner(), -1);
}

TEST(PhysicalMemory, FreshFramesAreFreeWithNoOwnerAndOwnerZeroRoundTrips)
{
    PhysicalMemory mem(1000, 4096);
    for (std::uint64_t frame = 1000; frame < 1000 + 4096; ++frame) {
        ASSERT_EQ(mem.info(frame).use, FrameUse::Free);
        ASSERT_EQ(mem.info(frame).owner(), -1);
    }
    // Owner 0 is host VM 0's id: it must stay distinct from no owner.
    mem.set_use(1010, 3, FrameUse::Data, 0);
    EXPECT_EQ(mem.info(1011).owner(), 0);
    EXPECT_EQ(mem.count_use(FrameUse::Data, 0), 3u);
    mem.set_use(1012, 1, FrameUse::Kernel);
    EXPECT_EQ(mem.info(1012).owner(), -1);
    EXPECT_EQ(mem.count_use(FrameUse::Data, 0), 2u);
    mem.set_use(1013, 1, FrameUse::Data, INT32_MAX);
    EXPECT_EQ(mem.info(1013).owner(), INT32_MAX);
    // Freeing drops the owner whatever the caller passes.
    mem.set_use(1010, 2, FrameUse::Free, 0);
    EXPECT_EQ(mem.info(1010).owner(), -1);
    EXPECT_EQ(mem.count_use(FrameUse::Free), 4096u - 2);
}

TEST(PhysicalMemory, UseNames)
{
    EXPECT_EQ(PhysicalMemory::use_name(FrameUse::Reserved), "reserved");
    EXPECT_EQ(PhysicalMemory::use_name(FrameUse::PageTable), "page-table");
}

}  // namespace
}  // namespace ptm::mem
