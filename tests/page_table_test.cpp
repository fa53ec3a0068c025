/**
 * @file
 * Unit tests for the PTE codec and the 4-level radix page table.
 */
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "mem/buddy_allocator.hpp"
#include "pt/page_table.hpp"
#include "pt/pte.hpp"

namespace ptm::pt {
namespace {

TEST(Pte, EncodeDecodeRoundTrip)
{
    PteFields fields{.present = true,
                     .writable = true,
                     .user = true,
                     .accessed = true,
                     .dirty = false,
                     .cow = true,
                     .frame = 0x12345};
    Pte pte = Pte::encode(fields);
    PteFields back = pte.decode();
    EXPECT_EQ(back.present, fields.present);
    EXPECT_EQ(back.writable, fields.writable);
    EXPECT_EQ(back.user, fields.user);
    EXPECT_EQ(back.accessed, fields.accessed);
    EXPECT_EQ(back.dirty, fields.dirty);
    EXPECT_EQ(back.cow, fields.cow);
    EXPECT_EQ(back.frame, fields.frame);
}

TEST(Pte, ArchitecturalBitPositions)
{
    Pte pte = Pte::encode({.present = true, .writable = true, .frame = 1});
    EXPECT_EQ(pte.raw() & 0x1, 0x1u);             // P is bit 0
    EXPECT_EQ(pte.raw() & 0x2, 0x2u);             // W is bit 1
    EXPECT_EQ(pte.raw() & Pte::kFrameMask, 0x1000u);
}

TEST(Pte, EmptyIsNotPresent)
{
    EXPECT_FALSE(Pte{}.present());
}

TEST(PageTable, IndexExtraction)
{
    // vpn = 0b[lll...lll] with 9 bits per level, level 0 topmost.
    std::uint64_t vpn = (5ull << 27) | (17ull << 18) | (301ull << 9) | 511;
    EXPECT_EQ(PageTable::index_at(vpn, 0), 5u);
    EXPECT_EQ(PageTable::index_at(vpn, 1), 17u);
    EXPECT_EQ(PageTable::index_at(vpn, 2), 301u);
    EXPECT_EQ(PageTable::index_at(vpn, 3), 511u);
}

class PageTableTest : public ::testing::Test {
  protected:
    PageTableTest() : buddy_(0, 4096)
    {
        source_ = FrameSource{
            .allocate = [this]() { return buddy_.allocate_frame(); },
            .release = [this](std::uint64_t f) { buddy_.free(f); },
        };
    }

    mem::BuddyAllocator buddy_;
    FrameSource source_;
};

TEST_F(PageTableTest, MapAndLookup)
{
    PageTable pt(source_);
    EXPECT_FALSE(pt.lookup(100).has_value());
    EXPECT_TRUE(pt.map(100, {.frame = 777}));
    auto pte = pt.lookup(100);
    ASSERT_TRUE(pte.has_value());
    EXPECT_TRUE(pte->present());
    EXPECT_EQ(pte->frame(), 777u);
}

TEST_F(PageTableTest, UnmapRemovesTranslation)
{
    PageTable pt(source_);
    pt.map(100, {.frame = 777});
    pt.unmap(100);
    EXPECT_FALSE(pt.lookup(100).has_value());
}

TEST_F(PageTableTest, UpdateChangesLeaf)
{
    PageTable pt(source_);
    pt.map(100, {.writable = true, .frame = 1});
    EXPECT_TRUE(pt.update(100, {.writable = false, .cow = true, .frame = 1}));
    auto pte = pt.lookup(100);
    ASSERT_TRUE(pte);
    EXPECT_FALSE(pte->writable());
    EXPECT_TRUE(pte->cow());
}

TEST_F(PageTableTest, UpdateFailsWithoutPath)
{
    PageTable pt(source_);
    EXPECT_FALSE(pt.update(100, {.frame = 1}));
}

TEST_F(PageTableTest, NodeSharingAcrossNeighbours)
{
    PageTable pt(source_);
    // Root exists; mapping one page creates 3 more nodes.
    EXPECT_EQ(pt.node_count(), 1u);
    pt.map(0, {.frame = 1});
    EXPECT_EQ(pt.node_count(), 4u);
    // A neighbouring page shares the whole path.
    pt.map(1, {.frame = 2});
    EXPECT_EQ(pt.node_count(), 4u);
    // A page in a different leaf node adds exactly one node.
    pt.map(512, {.frame = 3});
    EXPECT_EQ(pt.node_count(), 5u);
    // A page in a very distant region adds a full path (3 nodes).
    pt.map(1ull << 30, {.frame = 4});
    EXPECT_EQ(pt.node_count(), 8u);
}

TEST_F(PageTableTest, WalkVisitsFourLevelsWithCorrectAddresses)
{
    PageTable pt(source_);
    std::uint64_t vpn = (3ull << 27) | (1ull << 18) | (2ull << 9) | 7;
    pt.map(vpn, {.frame = 424242});

    WalkSteps steps;
    WalkResult walk = pt.walk(vpn, steps);
    ASSERT_EQ(walk.steps, 4u);
    EXPECT_TRUE(walk.complete);
    EXPECT_EQ(steps[0].node_frame, pt.root_frame());
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(steps[i].level, i);
        EXPECT_EQ(steps[i].index, PageTable::index_at(vpn, i));
        EXPECT_EQ(steps[i].entry_paddr,
                  steps[i].node_frame * kPageSize +
                      steps[i].index * kPteSize);
        EXPECT_TRUE(steps[i].pte.present());
    }
    // Chain property: each step's PTE points at the next node.
    for (unsigned i = 0; i + 1 < 4; ++i)
        EXPECT_EQ(steps[i].pte.frame(), steps[i + 1].node_frame);
    EXPECT_EQ(steps[3].pte.frame(), 424242u);
}

TEST_F(PageTableTest, WalkStopsAtNonPresent)
{
    PageTable pt(source_);
    WalkSteps steps;
    WalkResult walk = pt.walk(123456, steps);
    EXPECT_EQ(walk.steps, 1u);
    EXPECT_FALSE(walk.complete);
    EXPECT_FALSE(steps[0].pte.present());
}

TEST_F(PageTableTest, AdjacentVpnsPackIntoOneLeafCacheLine)
{
    // The structural fact behind the whole paper: PTEs of 8 neighbouring
    // pages share one 64-byte line (Figure 3).
    PageTable pt(source_);
    std::set<std::uint64_t> lines;
    for (std::uint64_t vpn = 64; vpn < 72; ++vpn) {
        pt.map(vpn, {.frame = vpn});
        auto paddr = pt.leaf_entry_paddr(vpn);
        ASSERT_TRUE(paddr);
        lines.insert(line_number(*paddr));
    }
    EXPECT_EQ(lines.size(), 1u);
    // ...and the next group starts a new line.
    pt.map(72, {.frame = 72});
    EXPECT_FALSE(lines.count(line_number(*pt.leaf_entry_paddr(72))));
}

TEST_F(PageTableTest, DestructorReturnsAllNodeFrames)
{
    std::uint64_t free_before = buddy_.free_frames_count();
    {
        PageTable pt(source_);
        for (std::uint64_t vpn = 0; vpn < 10000; vpn += 97)
            pt.map(vpn, {.frame = vpn});
        EXPECT_LT(buddy_.free_frames_count(), free_before);
    }
    EXPECT_EQ(buddy_.free_frames_count(), free_before);
    buddy_.check_invariants();
}

TEST_F(PageTableTest, MapFailsOnNodeOom)
{
    // Tiny frame pool: eventually map() cannot create nodes.
    mem::BuddyAllocator tiny(0, 4);
    FrameSource source{
        .allocate = [&tiny]() { return tiny.allocate_frame(); },
        .release = [&tiny](std::uint64_t f) { tiny.free(f); },
    };
    PageTable pt(source);
    EXPECT_TRUE(pt.map(0, {.frame = 1}));  // uses root + 3 nodes = 4
    // A distant vpn needs 3 new nodes: none available.
    EXPECT_FALSE(pt.map(1ull << 30, {.frame = 2}));
}

TEST_F(PageTableTest, LeafEntryPaddrWithoutMapping)
{
    PageTable pt(source_);
    EXPECT_FALSE(pt.leaf_entry_paddr(55).has_value());
    pt.map(55, {.frame = 1});
    // Neighbours in the same leaf node have a slot address even while
    // unmapped — the slot exists once the node does.
    EXPECT_TRUE(pt.leaf_entry_paddr(56).has_value());
}

/// Property test: random map/lookup/unmap against a reference std::map.
class PageTablePropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PageTablePropertyTest, MatchesReferenceModel)
{
    mem::BuddyAllocator buddy(0, 1u << 16);
    FrameSource source{
        .allocate = [&buddy]() { return buddy.allocate_frame(); },
        .release = [&buddy](std::uint64_t f) { buddy.free(f); },
    };
    PageTable pt(source);
    std::map<std::uint64_t, std::uint64_t> reference;
    Rng rng(GetParam());

    for (int step = 0; step < 5000; ++step) {
        std::uint64_t vpn = rng.below(1ull << 20);
        double action = rng.uniform();
        if (action < 0.6) {
            std::uint64_t frame = rng.below(1ull << 30);
            ASSERT_TRUE(pt.map(vpn, {.frame = frame}));
            reference[vpn] = frame;
        } else if (action < 0.8) {
            pt.unmap(vpn);
            reference.erase(vpn);
        } else {
            auto pte = pt.lookup(vpn);
            auto it = reference.find(vpn);
            if (it == reference.end()) {
                EXPECT_FALSE(pte.has_value());
            } else {
                ASSERT_TRUE(pte.has_value());
                EXPECT_EQ(pte->frame(), it->second);
            }
        }
    }
    // Full sweep at the end.
    for (const auto &[vpn, frame] : reference) {
        auto pte = pt.lookup(vpn);
        ASSERT_TRUE(pte.has_value());
        EXPECT_EQ(pte->frame(), frame);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTablePropertyTest,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace ptm::pt
