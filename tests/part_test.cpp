/**
 * @file
 * Unit tests for PaRT, the Page Reservation Table.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/part.hpp"

namespace ptm::core {
namespace {

TEST(Part, ClaimOnEmptyTableMisses)
{
    Part part;
    ClaimResult result = part.claim(5, 3);
    EXPECT_FALSE(result.found);
    EXPECT_FALSE(result.already_mapped);
    EXPECT_FALSE(result.deleted_full);
    EXPECT_EQ(part.live_reservations(), 0u);
}

TEST(Part, CreateThenClaimHandsOutChunkFrames)
{
    Part part;
    EXPECT_EQ(part.create(10, 800, 2), 802u);
    for (unsigned offset : {0u, 1u, 3u, 7u}) {
        ClaimResult claim = part.claim(10, offset);
        ASSERT_TRUE(claim.found);
        EXPECT_EQ(claim.gfn, 800u + offset);
    }
    EXPECT_EQ(part.live_reservations(), 1u);
}

TEST(Part, FullMaskDeletesEntry)
{
    Part part;
    part.create(3, 80, 0);
    unsigned deletions = 0;
    for (unsigned offset = 1; offset < 8; ++offset) {
        ClaimResult claim = part.claim(3, offset);
        ASSERT_TRUE(claim.found);
        EXPECT_EQ(claim.deleted_full, offset == 7);
        deletions += claim.deleted_full;
    }
    EXPECT_EQ(deletions, 1u);
    EXPECT_EQ(part.live_reservations(), 0u);
    EXPECT_FALSE(part.find(3).has_value());
    EXPECT_FALSE(part.claim(3, 0).found) << "deleted entry cannot serve";
}

TEST(Part, UnmappedReservedAccounting)
{
    Part part;
    EXPECT_EQ(part.unmapped_reserved_pages(), 0u);
    part.create(1, 8, 0);
    EXPECT_EQ(part.unmapped_reserved_pages(), 7u);
    part.claim(1, 1);
    part.claim(1, 2);
    EXPECT_EQ(part.unmapped_reserved_pages(), 5u);
    part.release(1, 2);
    EXPECT_EQ(part.unmapped_reserved_pages(), 6u);
    // Fill the group: the entry disappears and contributes nothing.
    for (unsigned offset : {2u, 3u, 4u, 5u, 6u, 7u})
        part.claim(1, offset);
    EXPECT_EQ(part.unmapped_reserved_pages(), 0u);
}

TEST(Part, ReleaseToEmptyDeletesAndReportsBase)
{
    Part part;
    part.create(7, 3200, 4);
    ReleaseResult released = part.release(7, 4);
    ASSERT_TRUE(released.found);
    EXPECT_TRUE(released.deleted_empty);
    EXPECT_EQ(released.base_gfn, 3200u);
    EXPECT_EQ(part.live_reservations(), 0u);
    EXPECT_EQ(part.unmapped_reserved_pages(), 0u);
    EXPECT_FALSE(part.release(7, 4).found) << "deleted entry cannot serve";
}

TEST(Part, ReleaseKeepsEntryWhileOthersMapped)
{
    Part part;
    part.create(7, 3200, 4);
    part.claim(7, 5);
    ReleaseResult released = part.release(7, 4);
    ASSERT_TRUE(released.found);
    EXPECT_FALSE(released.deleted_empty);
    EXPECT_EQ(released.final_mask, 1u << 5);
    // The released page can be claimed again (frame reuse).
    ClaimResult again = part.claim(7, 4);
    ASSERT_TRUE(again.found);
    EXPECT_EQ(again.gfn, 3204u);
}

TEST(Part, ReleaseOnUnknownGroupMisses)
{
    Part part;
    EXPECT_FALSE(part.release(99, 0).found);
}

TEST(Part, FindReturnsSnapshot)
{
    Part part;
    part.create(42, 1000, 1);
    auto view = part.find(42);
    ASSERT_TRUE(view);
    EXPECT_EQ(view->group, 42u);
    EXPECT_EQ(view->base_gfn, 1000u);
    EXPECT_EQ(view->mask, 1u << 1);
}

TEST(Part, DistantGroupsDoNotCollide)
{
    // Groups differing only in high radix digits must be independent.
    Part part;
    std::uint64_t a = 5;
    std::uint64_t b = 5 + (1ull << 27);  // differs at the root level
    part.create(a, 100, 0);
    part.create(b, 200, 0);
    EXPECT_EQ(part.find(a)->base_gfn, 100u);
    EXPECT_EQ(part.find(b)->base_gfn, 200u);
}

TEST(Part, DrainVisitsAndRemovesEverything)
{
    Part part;
    for (std::uint64_t group = 0; group < 100; group += 7)
        part.create(group, group * 8, 0);
    std::uint64_t visited = 0;
    std::uint64_t unmapped = 0;
    part.drain([&](const ReservationView &view) {
        ++visited;
        unmapped += 8 - std::popcount(view.mask);
        EXPECT_EQ(view.base_gfn, view.group * 8);
    });
    EXPECT_EQ(visited, 15u);
    EXPECT_EQ(unmapped, 15u * 7u);
    EXPECT_EQ(part.live_reservations(), 0u);
    EXPECT_EQ(part.unmapped_reserved_pages(), 0u);
}

TEST(Part, GranularityVariants)
{
    for (unsigned pages : {2u, 4u, 16u, 32u}) {
        Part part(pages);
        EXPECT_EQ(part.pages_per_group(), pages);
        part.create(1, 64, 0);
        EXPECT_EQ(part.unmapped_reserved_pages(), pages - 1);
        bool deleted = false;
        for (unsigned offset = 1; offset < pages; ++offset)
            deleted = part.claim(1, offset).deleted_full;
        EXPECT_TRUE(deleted) << pages;
        EXPECT_EQ(part.live_reservations(), 0u);
    }
}

TEST(Part, DrainVisitsReservationsInAscendingGroupOrder)
{
    // Groups in different level-3, level-2 and root slots, created out of
    // order: drain must still visit them by ascending group, the order in
    // which reclaim returns their frames to the buddy.
    Part part;
    const std::vector<std::uint64_t> groups = {3 + (1ull << 27), 1u << 18,
                                               512, 511, 5};
    for (std::uint64_t group : groups)
        part.create(group, group * 8, 0);
    part.claim(512, 3);
    part.claim(1u << 18, 7);
    part.claim(5, 1);
    part.claim(5, 2);

    std::vector<ReservationView> visited;
    part.drain([&](const ReservationView &view) { visited.push_back(view); });

    const std::vector<ReservationView> expected = {
        {5, 40, 0b111},
        {511, 511 * 8, 0b1},
        {512, 512 * 8, 0b1001},
        {1u << 18, (1ull << 18) * 8, 0b10000001},
        {3 + (1ull << 27), (3 + (1ull << 27)) * 8, 0b1},
    };
    ASSERT_EQ(visited.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(visited[i].group, expected[i].group) << i;
        EXPECT_EQ(visited[i].base_gfn, expected[i].base_gfn) << i;
        EXPECT_EQ(visited[i].mask, expected[i].mask) << i;
    }
    EXPECT_EQ(part.live_reservations(), 0u);
    EXPECT_EQ(part.unmapped_reserved_pages(), 0u);
}

TEST(PartDeathTest, BaseGfnBeyond32BitsPanics)
{
    Part part;
    // The largest base an entry holds round-trips, and so do the frames
    // it hands out.
    const std::uint64_t top = 0xffff'fff8ULL;
    EXPECT_EQ(part.create(1, top, 0), top);
    ClaimResult claim = part.claim(1, 7);
    ASSERT_TRUE(claim.found);
    EXPECT_EQ(claim.gfn, 0xffff'ffffULL);
    ASSERT_TRUE(part.find(1).has_value());
    EXPECT_EQ(part.find(1)->base_gfn, top);
    EXPECT_DEATH(part.create(2, 1ULL << 32, 0),
                 "base gfn 4294967296 of group 2 overflows the 32-bit entry");
}

}  // namespace
}  // namespace ptm::core
