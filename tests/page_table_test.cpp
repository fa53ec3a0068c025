/**
 * @file
 * Unit tests for the PTE codec and the 4-level radix page table, and
 * for unmap_range() on both tables and through GuestKernel::free_region.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "mem/buddy_allocator.hpp"
#include "pt/hashed_page_table.hpp"
#include "pt/page_table.hpp"
#include "pt/pte.hpp"
#include "vm/guest_kernel.hpp"

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

/**
 * Frame source that hands out frames far above 2^32 in a scattered
 * order and records every allocation and release, so a test can check
 * that each node frame goes back exactly once and that the frame a walk
 * reports is the one the node was given.
 */
class CountingFrames {
  public:
    FrameSource
    source()
    {
        return {
            .allocate = [this]() -> std::optional<std::uint64_t> {
                const std::uint64_t frame =
                    kBase + ((next_++ * 7919) % 100'003);
                EXPECT_TRUE(live_.insert(frame).second)
                    << "frame " << frame << " handed out twice";
                ++allocated_;
                return frame;
            },
            .release =
                [this](std::uint64_t frame) {
                    EXPECT_EQ(live_.erase(frame), 1u)
                        << "frame " << frame
                        << " released but not live (double release?)";
                    ++released_;
                    release_order_.push_back(frame);
                },
        };
    }

    /// Above 2^32, and below the 2^40 frames a PTE's frame field holds.
    static constexpr std::uint64_t kBase = 0x12'3456'0000ULL;

    const std::set<std::uint64_t> &live() const { return live_; }
    std::uint64_t allocated() const { return allocated_; }
    std::uint64_t released() const { return released_; }
    /// Every released frame, in release order.
    const std::vector<std::uint64_t> &release_order() const
    {
        return release_order_;
    }

  private:
    std::uint64_t next_ = 0;
    std::uint64_t allocated_ = 0;
    std::uint64_t released_ = 0;
    std::set<std::uint64_t> live_;
    std::vector<std::uint64_t> release_order_;
};

/// Prefix of @p vpn that names its node at @p level (0 = root).
std::uint64_t
node_prefix(std::uint64_t vpn, unsigned level)
{
    return vpn >> (9 * (kPtLevels - level));
}

/**
 * Randomized map/unmap/update/lookup/walk trace over vpns drawn from
 * five leaves under different parents, checked against a std::map and
 * against the node set the trace implies (nodes are never freed before
 * the table, so a node exists iff some map or update reached it).
 */
TEST(PageTableRandomized, TraceAcrossLeavesMatchesReference)
{
    const std::uint64_t leaf_bases[] = {
        0,                      // leaf 0 under root entry 0
        511ull << 9,            // last leaf of the same level-2 node
        1ull << 18,             // next level-2 node
        (5ull << 27) | (3ull << 18) | (7ull << 9),  // other root entry
        (511ull << 27) | (511ull << 18) | (511ull << 9),  // last leaf
    };
    for (std::uint64_t seed : {11u, 23u, 47u}) {
        CountingFrames frames;
        PageTable pt(frames.source());
        struct Ref {
            std::uint64_t frame;
            bool writable;
            bool cow;
        };
        std::map<std::uint64_t, Ref> reference;
        // Node prefixes per level below the root that exist.
        std::set<std::uint64_t> nodes[kPtLevels];
        nodes[0].insert(0);
        auto touch_path = [&](std::uint64_t vpn) {
            for (unsigned level = 1; level < kPtLevels; ++level)
                nodes[level].insert(node_prefix(vpn, level));
        };
        auto leaf_exists = [&](std::uint64_t vpn) {
            return nodes[kPtLevels - 1].count(node_prefix(vpn, 3)) != 0;
        };
        Rng rng(seed);
        for (int step = 0; step < 6000; ++step) {
            const std::uint64_t vpn =
                leaf_bases[rng.below(5)] + rng.below(kPtesPerNode);
            const std::uint64_t frame = rng.below(1ull << 36);
            const bool writable = rng.below(2) != 0;
            const bool cow = rng.below(2) != 0;
            const std::uint64_t dice = rng.below(10);
            if (dice < 4) {
                ASSERT_TRUE(pt.map(vpn, {.writable = writable,
                                         .cow = cow,
                                         .frame = frame}));
                touch_path(vpn);
                reference[vpn] = {frame, writable, cow};
            } else if (dice < 6) {
                pt.unmap(vpn);
                reference.erase(vpn);
            } else if (dice < 7) {
                // update writes the entry whenever its leaf exists, even
                // over a non-present one.
                const bool had_leaf = leaf_exists(vpn);
                EXPECT_EQ(pt.update(vpn, {.writable = writable,
                                          .cow = cow,
                                          .frame = frame}),
                          had_leaf);
                if (had_leaf)
                    reference[vpn] = {frame, writable, cow};
            } else if (dice < 8) {
                auto it = reference.find(vpn);
                auto pte = pt.lookup(vpn);
                ASSERT_EQ(pte.has_value(), it != reference.end());
                if (pte) {
                    EXPECT_EQ(pte->frame(), it->second.frame);
                    EXPECT_EQ(pte->writable(), it->second.writable);
                    EXPECT_EQ(pte->cow(), it->second.cow);
                }
            } else {
                WalkSteps steps;
                WalkResult walk = pt.walk(vpn, steps);
                auto it = reference.find(vpn);
                ASSERT_EQ(walk.complete, it != reference.end());
                // The walk stops after the first level whose node for
                // vpn is missing below it.
                unsigned want_steps = 1;
                while (want_steps < kPtLevels &&
                       nodes[want_steps].count(
                           node_prefix(vpn, want_steps)) != 0)
                    ++want_steps;
                ASSERT_EQ(walk.steps, want_steps);
                if (it != reference.end()) {
                    EXPECT_EQ(steps[3].pte.frame(), it->second.frame);
                    EXPECT_EQ(steps[3].pte.writable(),
                              it->second.writable);
                    EXPECT_EQ(steps[3].pte.cow(), it->second.cow);
                } else {
                    EXPECT_FALSE(steps[walk.steps - 1].pte.present());
                }
                EXPECT_EQ(pt.leaf_entry_paddr(vpn).has_value(),
                          leaf_exists(vpn));
            }
            std::uint64_t want_nodes = 0;
            for (const auto &level : nodes)
                want_nodes += level.size();
            ASSERT_EQ(pt.node_count(), want_nodes);
        }
        ASSERT_GE(nodes[kPtLevels - 1].size(), 3u);
        for (const auto &[vpn, ref] : reference) {
            auto pte = pt.lookup(vpn);
            ASSERT_TRUE(pte.has_value());
            EXPECT_EQ(pte->frame(), ref.frame);
        }
    }
}

TEST(PageTableRandomized, EveryNodeFrameIsReleasedExactlyOnce)
{
    CountingFrames frames;
    {
        PageTable pt(frames.source());
        EXPECT_EQ(pt.node_count(), 1u);
        Rng rng(5);
        for (int i = 0; i < 3000; ++i) {
            const std::uint64_t vpn = rng.below(1ull << 36);
            ASSERT_TRUE(pt.map(vpn, {.frame = i + 1ull}));
            if (i % 3 == 0)
                pt.unmap(vpn);
            // Every node holds exactly one live frame.
            ASSERT_EQ(pt.node_count(), frames.live().size());
            ASSERT_EQ(frames.released(), 0u);
        }
        EXPECT_GT(pt.node_count(), 3000u);
    }
    EXPECT_TRUE(frames.live().empty());
    EXPECT_EQ(frames.released(), frames.allocated());
}

TEST(PageTableRandomized, WalkFramesComeFromParentEntries)
{
    CountingFrames frames;
    PageTable pt(frames.source());
    Rng rng(9);
    std::vector<std::uint64_t> vpns;
    for (int i = 0; i < 500; ++i) {
        // Clusters, so walks share interior nodes and leaves.
        const std::uint64_t vpn =
            (rng.below(8) << 30) + (rng.below(16) << 9) + rng.below(512);
        ASSERT_TRUE(pt.map(vpn, {.frame = 42}));
        vpns.push_back(vpn);
    }
    // The frame a node was given is the one every walk through it
    // reports, at every level.
    std::map<std::uint64_t, std::uint64_t> frame_of_node[kPtLevels];
    for (std::uint64_t vpn : vpns) {
        WalkSteps steps;
        WalkResult walk = pt.walk(vpn, steps);
        ASSERT_TRUE(walk.complete);
        ASSERT_EQ(walk.steps, kPtLevels);
        EXPECT_EQ(steps[0].node_frame, pt.root_frame());
        for (unsigned level = 0; level < kPtLevels; ++level) {
            const WalkStep &step = steps[level];
            EXPECT_EQ(frames.live().count(step.node_frame), 1u);
            EXPECT_EQ(step.entry_paddr,
                      step.node_frame * kPageSize + step.index * kPteSize);
            if (level + 1 < kPtLevels) {
                EXPECT_EQ(step.pte.frame(), steps[level + 1].node_frame);
            }
            auto [it, fresh] = frame_of_node[level].emplace(
                node_prefix(vpn, level), step.node_frame);
            if (!fresh) {
                EXPECT_EQ(it->second, step.node_frame);
            }
        }
        std::optional<Addr> leaf = pt.leaf_entry_paddr(vpn);
        ASSERT_TRUE(leaf.has_value());
        EXPECT_EQ(*leaf, steps[3].entry_paddr);
    }
    // Distinct nodes have distinct frames, and together they are every
    // frame the table holds.
    std::set<std::uint64_t> seen;
    for (const auto &level : frame_of_node) {
        for (const auto &[prefix, frame] : level)
            EXPECT_TRUE(seen.insert(frame).second);
    }
    EXPECT_EQ(seen, frames.live());
    EXPECT_EQ(seen.size(), pt.node_count());
}

/**
 * The first difference between what @p a and @p b report for @p vpn —
 * walk steps, lookup and leaf slot address — or "" when they agree.
 */
std::string
view_diff(const TranslationTable &a, const TranslationTable &b,
          std::uint64_t vpn)
{
    const std::string at = " at vpn " + std::to_string(vpn);
    WalkSteps sa{}, sb{};
    const WalkResult wa = a.walk(vpn, sa);
    const WalkResult wb = b.walk(vpn, sb);
    if (wa.steps != wb.steps || wa.complete != wb.complete)
        return "walk result" + at;
    for (unsigned i = 0; i < wa.steps; ++i) {
        if (sa[i].level != sb[i].level ||
            sa[i].node_frame != sb[i].node_frame ||
            sa[i].index != sb[i].index ||
            sa[i].entry_paddr != sb[i].entry_paddr ||
            sa[i].pte != sb[i].pte)
            return "walk step " + std::to_string(i) + at;
    }
    if (a.lookup(vpn) != b.lookup(vpn))
        return "lookup" + at;
    if (a.leaf_entry_paddr(vpn) != b.leaf_entry_paddr(vpn))
        return "leaf_entry_paddr" + at;
    return "";
}

/// Pages cleared by one unmap, with their old entries, in clear order.
using Cleared = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

Cleared
unmap_range_of(TranslationTable &table, std::uint64_t begin,
               std::uint64_t end)
{
    Cleared cleared;
    table.unmap_range(begin, end, [&cleared](std::uint64_t vpn, Pte old) {
        cleared.emplace_back(vpn, old.raw());
    });
    return cleared;
}

Cleared
unmap_each_of(TranslationTable &table, std::uint64_t begin,
              std::uint64_t end)
{
    Cleared cleared;
    for (std::uint64_t vpn = begin; vpn < end; ++vpn) {
        if (std::optional<Pte> pte = table.lookup(vpn)) {
            table.unmap(vpn);
            cleared.emplace_back(vpn, pte->raw());
        }
    }
    return cleared;
}

/**
 * unmap_range() against per-page unmap() on two radix tables fed the
 * same maps from identical frame sources: random churn over eight leaves
 * that straddle a level-2 node boundary, with ranges that cross leaves,
 * half-leaf chunks, refaults and updates into leaves the range side
 * emptied. Every walk, lookup, leaf slot, node count and frame
 * allocation agrees after each step, the destructors release the same
 * frames in the same order, and the range side holds fewer leaf copies.
 */
TEST(PageTableUnmapRange, MatchesPerPageUnmap)
{
    constexpr std::uint64_t kLeaf = kPtesPerNode;
    // Leaves 508..511 of one level-2 node and 0..3 of the next.
    const std::uint64_t base = (1ull << 18) - 4 * kLeaf;
    const std::uint64_t span = 8 * kLeaf;
    for (std::uint64_t seed : {3u, 17u, 29u}) {
        CountingFrames range_frames;
        CountingFrames page_frames;
        std::uint64_t refaults = 0;
        std::uint64_t update_refills = 0;
        std::uint64_t most_dropped = 0;
        {
            PageTable ranged(range_frames.source());
            PageTable paged(page_frames.source());
            Rng rng(seed);
            for (int step = 0; step < 2000; ++step) {
                const std::uint64_t dice = rng.below(10);
                const std::uint64_t copies_before = ranged.leaf_copies();
                const std::uint64_t paged_before = paged.leaf_copies();
                if (dice < 4) {
                    // Fault in a run of pages.
                    const std::uint64_t first = base + rng.below(span);
                    const std::uint64_t last =
                        std::min(first + 1 + rng.below(96), base + span);
                    for (std::uint64_t vpn = first; vpn < last; ++vpn) {
                        const PteFields fields{
                            .writable = rng.below(2) != 0,
                            .cow = rng.below(4) == 0,
                            .frame = rng.below(1ull << 30)};
                        ASSERT_TRUE(ranged.map(vpn, fields));
                        ASSERT_TRUE(paged.map(vpn, fields));
                    }
                    if (ranged.leaf_copies() - copies_before >
                        paged.leaf_copies() - paged_before)
                        ++refaults;
                } else if (dice < 7) {
                    std::uint64_t begin = 0;
                    std::uint64_t end = 0;
                    switch (rng.below(3)) {
                    case 0:  // a half-leaf chunk
                        begin = base + rng.below(2 * 8) * (kLeaf / 2);
                        end = begin + kLeaf / 2;
                        break;
                    case 1:  // a whole leaf
                        begin = base + rng.below(8) * kLeaf;
                        end = begin + kLeaf;
                        break;
                    default:  // anything up to three leaves, any offset
                        begin = base - kLeaf + rng.below(span + kLeaf);
                        end = begin + 1 + rng.below(3 * kLeaf);
                        break;
                    }
                    ASSERT_EQ(unmap_range_of(ranged, begin, end),
                              unmap_each_of(paged, begin, end))
                        << "[" << begin << ", " << end << ")";
                } else if (dice < 8) {
                    const std::uint64_t vpn = base + rng.below(span);
                    const PteFields fields{.writable = false,
                                           .cow = true,
                                           .frame = rng.below(1ull << 30)};
                    ASSERT_EQ(ranged.update(vpn, fields),
                              paged.update(vpn, fields));
                    if (ranged.leaf_copies() > copies_before)
                        ++update_refills;
                } else {
                    const std::uint64_t vpn = base + rng.below(span);
                    ranged.unmap(vpn);
                    paged.unmap(vpn);
                }
                ASSERT_EQ(ranged.node_count(), paged.node_count());
                ASSERT_EQ(range_frames.allocated(), page_frames.allocated());
                most_dropped = std::max(
                    most_dropped, paged.leaf_copies() - ranged.leaf_copies());
                // Sampled views each step, plus the whole window (and a
                // leaf either side of it) every 100 steps.
                for (int i = 0; i < 16; ++i) {
                    const std::uint64_t vpn =
                        base - kLeaf + rng.below(span + 2 * kLeaf);
                    ASSERT_EQ(view_diff(ranged, paged, vpn), "");
                }
                if (step % 100 == 99) {
                    for (std::uint64_t vpn = base - kLeaf;
                         vpn < base + span + kLeaf; ++vpn)
                        ASSERT_EQ(view_diff(ranged, paged, vpn), "");
                }
            }
            ASSERT_EQ(view_diff(ranged, paged, 5ull << 27), "");
        }
        EXPECT_GT(most_dropped, 0u) << "seed " << seed;
        EXPECT_GT(refaults, 0u) << "seed " << seed;
        EXPECT_GT(update_refills, 0u) << "seed " << seed;
        EXPECT_EQ(range_frames.release_order(), page_frames.release_order());
        EXPECT_TRUE(range_frames.live().empty());
    }
}

TEST(PageTableUnmapRange, EmptiedLeafReadsAsZeros)
{
    CountingFrames frames;
    PageTable pt(frames.source());
    const std::uint64_t vpn = (2ull << 18) + 5 * kPtesPerNode + 40;
    ASSERT_TRUE(pt.map(vpn, {.frame = 99}));
    WalkSteps mapped{};
    ASSERT_TRUE(pt.walk(vpn, mapped).complete);
    const std::uint64_t nodes = pt.node_count();
    const std::uint64_t allocated = frames.allocated();

    Cleared cleared = unmap_range_of(pt, vpn - 40, vpn + 472);
    ASSERT_EQ(cleared.size(), 1u);
    EXPECT_EQ(cleared[0].first, vpn);
    EXPECT_EQ(Pte(cleared[0].second).frame(), 99u);
    EXPECT_EQ(pt.leaf_copies(), 0u);
    EXPECT_EQ(pt.node_count(), nodes);

    // The same leaf step as before, with an empty entry.
    WalkSteps steps{};
    WalkResult walk = pt.walk(vpn, steps);
    EXPECT_EQ(walk.steps, kPtLevels);
    EXPECT_FALSE(walk.complete);
    EXPECT_EQ(steps[3].level, 3u);
    EXPECT_EQ(steps[3].node_frame, mapped[3].node_frame);
    EXPECT_EQ(steps[3].index, mapped[3].index);
    EXPECT_EQ(steps[3].entry_paddr, mapped[3].entry_paddr);
    EXPECT_EQ(steps[3].pte, Pte{});
    EXPECT_FALSE(pt.lookup(vpn).has_value());
    EXPECT_EQ(pt.leaf_entry_paddr(vpn + 1),
              std::optional<Addr>(mapped[3].entry_paddr + kPteSize));
    pt.unmap(vpn);
    EXPECT_EQ(pt.leaf_copies(), 0u);

    // Writes re-create the copy on the same frame, allocating nothing.
    EXPECT_TRUE(pt.update(vpn + 1, {.frame = 7}));
    EXPECT_EQ(pt.leaf_copies(), 1u);
    EXPECT_EQ(pt.leaf_entry_paddr(vpn + 1),
              std::optional<Addr>(mapped[3].entry_paddr + kPteSize));
    EXPECT_EQ(pt.lookup(vpn + 1)->frame(), 7u);
    EXPECT_FALSE(pt.lookup(vpn).has_value());
    unmap_range_of(pt, vpn, vpn + 2);
    EXPECT_EQ(pt.leaf_copies(), 0u);
    EXPECT_TRUE(pt.map(vpn, {.frame = 8}));
    EXPECT_EQ(pt.leaf_copies(), 1u);
    EXPECT_EQ(pt.node_count(), nodes);
    EXPECT_EQ(frames.allocated(), allocated);
    ASSERT_TRUE(pt.walk(vpn, steps).complete);
    EXPECT_EQ(steps[3].node_frame, mapped[3].node_frame);

    // A range that clears nothing still drops a leaf it finds empty, and
    // ranges over missing paths, or ending at the top vpn, do nothing.
    pt.unmap(vpn);
    EXPECT_EQ(pt.leaf_copies(), 1u);
    EXPECT_TRUE(unmap_range_of(pt, vpn + 100, vpn + 101).empty());
    EXPECT_EQ(pt.leaf_copies(), 0u);
    EXPECT_TRUE(unmap_range_of(pt, 0, 1ull << 20).empty());
    EXPECT_TRUE(unmap_range_of(pt, ~0ull - 3, ~0ull).empty());
    EXPECT_TRUE(unmap_range_of(pt, vpn, vpn).empty());
    EXPECT_EQ(pt.node_count(), nodes);
}

/// The hashed table keeps the per-vpn default: unmap_range() is the
/// lookup-and-unmap loop, entry for entry.
TEST(HashedPageTableUnmapRange, MatchesPerVpnLoop)
{
    CountingFrames range_frames;
    CountingFrames loop_frames;
    {
        HashedPageTable ranged(range_frames.source());
        HashedPageTable looped(loop_frames.source());
        Rng rng(41);
        const std::uint64_t base = 1ull << 20;
        const std::uint64_t span = 4 * kPtesPerNode;
        for (int step = 0; step < 1500; ++step) {
            if (rng.below(2) == 0) {
                const std::uint64_t first = base + rng.below(span);
                const std::uint64_t last =
                    std::min(first + 1 + rng.below(64), base + span);
                for (std::uint64_t vpn = first; vpn < last; ++vpn) {
                    const PteFields fields{.frame = rng.below(1ull << 30)};
                    ASSERT_TRUE(ranged.map(vpn, fields));
                    ASSERT_TRUE(looped.map(vpn, fields));
                }
            } else {
                const std::uint64_t begin = base + rng.below(span);
                const std::uint64_t end = begin + 1 + rng.below(700);
                ASSERT_EQ(unmap_range_of(ranged, begin, end),
                          unmap_each_of(looped, begin, end));
            }
            ASSERT_EQ(ranged.node_count(), looped.node_count());
            ASSERT_EQ(ranged.entry_count(), looped.entry_count());
            for (int i = 0; i < 16; ++i) {
                const std::uint64_t vpn = base + rng.below(span);
                ASSERT_EQ(view_diff(ranged, looped, vpn), "");
            }
        }
    }
    EXPECT_EQ(range_frames.release_order(), loop_frames.release_order());
}

/**
 * GuestKernel churn through free_region(): mmap half-leaf regions, fault
 * most of their pages in, munmap the oldest. RSS, pages_freed and the
 * guest buddy's free frames follow the test's own page list, node
 * frames never fall, and exactly the leaves holding a mapped page keep a
 * host copy.
 */
TEST(GuestKernelUnmapRange, ChurnKeepsFrameAccounting)
{
    constexpr std::uint64_t kFrames = 1u << 14;
    vm::GuestKernel guest(kFrames);
    vm::Process &proc = guest.create_process("churn");
    const auto *table = dynamic_cast<const PageTable *>(&proc.page_table());
    ASSERT_NE(table, nullptr);

    Rng rng(13);
    std::deque<Addr> live;
    std::set<std::uint64_t> mapped;
    std::uint64_t freed = 0;
    const Addr region_bytes = kPtesPerNode / 2 * kPageSize;
    for (int round = 0; round < 120; ++round) {
        const Addr base = proc.vas().mmap(region_bytes);
        live.push_back(base);
        const std::uint64_t first = page_number(base);
        for (std::uint64_t vpn = first; vpn < first + kPtesPerNode / 2;
             ++vpn) {
            if (rng.below(4) == 0)
                continue;
            ASSERT_TRUE(guest.handle_fault(proc, vpn).ok);
            mapped.insert(vpn);
        }
        if (live.size() > 3) {
            const std::uint64_t gone = page_number(live.front());
            const std::uint64_t nodes = table->node_count();
            guest.free_region(proc, live.front());
            live.pop_front();
            EXPECT_GE(table->node_count(), nodes);
            auto from = mapped.lower_bound(gone);
            auto to = mapped.lower_bound(gone + kPtesPerNode / 2);
            freed += static_cast<std::uint64_t>(std::distance(from, to));
            mapped.erase(from, to);
        }
        ASSERT_EQ(proc.rss_pages(), mapped.size());
        ASSERT_EQ(guest.stats().pages_freed.value(), freed);
        ASSERT_EQ(guest.buddy().free_frames_count(),
                  kFrames - mapped.size() - table->node_count());
        std::set<std::uint64_t> leaves;
        for (std::uint64_t vpn : mapped)
            leaves.insert(vpn / kPtesPerNode);
        ASSERT_EQ(table->leaf_copies(), leaves.size());
    }
    EXPECT_GT(freed, 0u);
    guest.exit_process(proc);
    EXPECT_EQ(guest.stats().pages_freed.value(), freed + mapped.size());
    EXPECT_EQ(guest.buddy().free_frames_count(), kFrames);
}

}  // namespace
}  // namespace ptm::pt
