/**
 * @file
 * Unit tests for the associative cache template, the two-level TLB, the
 * page-walk caches, and the nested TLB.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tlb/assoc_cache.hpp"
#include "tlb/tlb.hpp"

namespace ptm::tlb {
namespace {

TEST(AssocCache, InsertLookup)
{
    AssocCache<std::uint64_t> cache(16, 4);
    EXPECT_FALSE(cache.lookup(5).has_value());
    cache.insert(5, 50);
    auto v = cache.lookup(5);
    ASSERT_TRUE(v);
    EXPECT_EQ(*v, 50u);
    EXPECT_EQ(cache.stats().hits.value(), 1u);
    EXPECT_EQ(cache.stats().misses.value(), 1u);
}

TEST(AssocCache, LruEvictionWithinSet)
{
    // 8 entries, 4 ways -> 2 sets. Even keys map to set 0.
    AssocCache<std::uint64_t> cache(8, 4);
    for (std::uint64_t k = 0; k < 8; k += 2)
        cache.insert(k, k);
    cache.lookup(0);  // refresh 0; LRU of set 0 becomes 2
    cache.insert(8, 8);
    EXPECT_TRUE(cache.probe(0).has_value());
    EXPECT_FALSE(cache.probe(2).has_value()) << "LRU way must be evicted";
    EXPECT_EQ(cache.stats().evictions.value(), 1u);
}

TEST(AssocCache, InsertRefreshesExisting)
{
    AssocCache<std::uint64_t> cache(4, 4);
    cache.insert(1, 10);
    cache.insert(1, 11);
    EXPECT_EQ(*cache.probe(1), 11u);
    EXPECT_EQ(cache.occupancy(), 1u);
}

TEST(AssocCache, InvalidateSingleAndAll)
{
    AssocCache<std::uint64_t> cache(8, 2);
    cache.insert(1, 1);
    cache.insert(2, 2);
    cache.invalidate(1);
    EXPECT_FALSE(cache.probe(1));
    EXPECT_TRUE(cache.probe(2));
    cache.invalidate_all();
    EXPECT_EQ(cache.occupancy(), 0u);
}

// ---------------------------------------------------------------------
// Construction-time geometry validation.

TEST(AssocCacheDeathTest, ZeroWaysIsFatal)
{
    EXPECT_EXIT(AssocCache<int> cache(16, 0),
                ::testing::ExitedWithCode(1), "bad assoc-cache shape");
}

TEST(AssocCacheDeathTest, ZeroEntriesIsFatal)
{
    EXPECT_EXIT(AssocCache<int> cache(0, 4),
                ::testing::ExitedWithCode(1), "bad assoc-cache shape");
}

TEST(AssocCacheDeathTest, EntriesNotMultipleOfWaysIsFatal)
{
    EXPECT_EXIT(AssocCache<int> cache(10, 4),
                ::testing::ExitedWithCode(1), "bad assoc-cache shape");
}

TEST(AssocCacheDeathTest, NonPowerOfTwoSetCountIsFatal)
{
    // 12 entries / 4 ways -> 3 sets.
    EXPECT_EXIT(AssocCache<int> cache(12, 4),
                ::testing::ExitedWithCode(1), "not a power of two");
}

TEST(AssocCacheDeathTest, MoreThanThirtyTwoWaysIsFatal)
{
    // One 33-way set: the tag scan's match mask has 32 bits.
    EXPECT_EXIT(AssocCache<int> cache(33, 33),
                ::testing::ExitedWithCode(1), "33 ways exceed the 32");
}

TEST(AssocCacheDeathTest, TagOverflowPanics)
{
    // 8 entries, 4 ways -> 2 sets, so a key's tag is key >> 1. The
    // largest storable tag is one below the invalid tag ~0.
    AssocCache<int> cache(8, 4);
    cache.insert(0x1fffffffdULL, 1);
    EXPECT_TRUE(cache.probe(0x1fffffffdULL).has_value());
    EXPECT_DEATH(cache.insert(0x1fffffffeULL, 2),
                 "key 8589934590 overflows the 32-bit tag store");
    EXPECT_DEATH(cache.lookup(1ULL << 40),
                 "overflows the 32-bit tag store");
}

// ---------------------------------------------------------------------
// Reference-model comparison: the SoA tag-scan insert/lookup against the
// obvious per-set entry-struct implementation, on a randomized mix of
// lookups, inserts, invalidations and full flushes.

class ReferenceAssoc {
  public:
    ReferenceAssoc(unsigned entries, unsigned ways)
        : ways_(ways), num_sets_(entries / ways), sets_(num_sets_)
    {
        for (auto &set : sets_)
            set.resize(ways_);
    }

    std::optional<std::uint64_t>
    lookup(std::uint64_t key)
    {
        auto &set = sets_[key & (num_sets_ - 1)];
        for (Entry &e : set) {
            if (e.valid && e.key == key) {
                e.stamp = ++clock_;
                ++hits_;
                return e.value;
            }
        }
        ++misses_;
        return std::nullopt;
    }

    void
    insert(std::uint64_t key, std::uint64_t value)
    {
        auto &set = sets_[key & (num_sets_ - 1)];
        for (Entry &e : set) {
            if (e.valid && e.key == key) {
                e.value = value;
                e.stamp = ++clock_;
                return;
            }
        }
        for (Entry &e : set) {
            if (!e.valid) {
                e = Entry{key, value, ++clock_, true};
                return;
            }
        }
        Entry *lru = &set[0];
        for (Entry &e : set) {
            if (e.stamp < lru->stamp)
                lru = &e;
        }
        ++evictions_;
        *lru = Entry{key, value, ++clock_, true};
    }

    void
    invalidate(std::uint64_t key)
    {
        auto &set = sets_[key & (num_sets_ - 1)];
        for (Entry &e : set) {
            if (e.valid && e.key == key)
                e.valid = false;
        }
    }

    void
    invalidate_all()
    {
        for (auto &set : sets_) {
            for (Entry &e : set)
                e.valid = false;
        }
    }

    std::optional<std::uint64_t>
    probe(std::uint64_t key) const
    {
        for (const Entry &e : sets_[key & (num_sets_ - 1)]) {
            if (e.valid && e.key == key)
                return e.value;
        }
        return std::nullopt;
    }

    unsigned
    occupancy() const
    {
        unsigned n = 0;
        for (const auto &set : sets_) {
            for (const Entry &e : set)
                n += e.valid ? 1 : 0;
        }
        return n;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }

  private:
    struct Entry {
        std::uint64_t key = 0;
        std::uint64_t value = 0;
        std::uint64_t stamp = 0;
        bool valid = false;
    };

    unsigned ways_;
    unsigned num_sets_;
    std::uint64_t clock_ = 0;
    std::vector<std::vector<Entry>> sets_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

TEST(AssocCache, RandomizedTraceMatchesReferenceModel)
{
    // 16 sets at each associativity; a key pool four times the capacity
    // keeps sets full and evicting. Both models see the identical
    // operation sequence. 1, 2 and 3 ways leave padding lanes in each
    // set's tag run; a rare invalidate_all (~0.2% of ops) makes sets
    // refill from empty, where the reference takes the first invalid way
    // and AssocCache the smallest stamp (0 when empty).
    for (unsigned ways : {1u, 2u, 3u, 4u, 8u}) {
        SCOPED_TRACE(std::to_string(ways) + " ways");
        const unsigned entries = 16 * ways;
        const std::uint64_t pool = 4 * entries;
        AssocCache<std::uint64_t> flat(entries, ways);
        ReferenceAssoc ref(entries, ways);

        ptm::Rng trace(42);
        for (int i = 0; i < 20000; ++i) {
            std::uint64_t key = trace.below(pool);
            double roll = trace.uniform();
            if (roll < 0.002) {
                flat.invalidate_all();
                ref.invalidate_all();
            } else if (roll < 0.45) {
                auto flat_v = flat.lookup(key);
                auto ref_v = ref.lookup(key);
                ASSERT_EQ(flat_v.has_value(), ref_v.has_value())
                    << "diverged at op " << i << ", key " << key;
                if (flat_v) {
                    ASSERT_EQ(*flat_v, *ref_v) << "op " << i;
                }
            } else if (roll < 0.90) {
                std::uint64_t value = key * 3 + 1;
                flat.insert(key, value);
                ref.insert(key, value);
            } else {
                flat.invalidate(key);
                ref.invalidate(key);
            }
        }
        EXPECT_EQ(flat.stats().hits.value(), ref.hits());
        EXPECT_EQ(flat.stats().misses.value(), ref.misses());
        EXPECT_EQ(flat.stats().evictions.value(), ref.evictions());
        EXPECT_EQ(flat.occupancy(), ref.occupancy());
        EXPECT_GT(ref.hits(), 0u);
        EXPECT_GT(ref.evictions(), 0u);

        // Every key's end state agrees through the non-updating probe
        // path.
        for (std::uint64_t key = 0; key < pool; ++key) {
            auto flat_v = flat.probe(key);
            auto ref_v = ref.probe(key);
            ASSERT_EQ(flat_v.has_value(), ref_v.has_value())
                << "key " << key;
            if (flat_v) {
                EXPECT_EQ(*flat_v, *ref_v) << "key " << key;
            }
        }
    }
}

TlbConfig
tiny_tlb()
{
    TlbConfig config;
    config.l1_entries = 8;
    config.l1_ways = 2;
    config.l2_entries = 32;
    config.l2_ways = 4;
    config.pwc_entries = 8;
    config.pwc_ways = 2;
    config.nested_entries = 16;
    config.nested_ways = 4;
    return config;
}

TEST(TlbHierarchy, MissThenL1Hit)
{
    TlbHierarchy tlb(tiny_tlb());
    EXPECT_EQ(tlb.lookup(7).level, TlbLevel::Miss);
    tlb.insert(7, 70);
    auto r = tlb.lookup(7);
    EXPECT_EQ(r.level, TlbLevel::L1);
    EXPECT_EQ(r.hfn, 70u);
}

TEST(TlbHierarchy, L2BackfillsL1)
{
    TlbHierarchy tlb(tiny_tlb());
    // Fill L1 set of key 1 (2 ways, 4 sets: keys 1, 5, 9 share set 1).
    tlb.insert(1, 10);
    tlb.insert(5, 50);
    tlb.insert(9, 90);  // evicts key 1 from L1; still in L2
    auto r = tlb.lookup(1);
    EXPECT_EQ(r.level, TlbLevel::L2);
    EXPECT_EQ(r.hfn, 10u);
    // Backfilled: now an L1 hit.
    EXPECT_EQ(tlb.lookup(1).level, TlbLevel::L1);
}

TEST(TlbHierarchy, InvalidateDropsBothLevels)
{
    TlbHierarchy tlb(tiny_tlb());
    tlb.insert(3, 30);
    tlb.invalidate(3);
    EXPECT_EQ(tlb.lookup(3).level, TlbLevel::Miss);
}

TEST(TlbHierarchy, FlushDropsEverything)
{
    TlbHierarchy tlb(tiny_tlb());
    for (std::uint64_t k = 0; k < 8; ++k)
        tlb.insert(k, k);
    tlb.flush();
    for (std::uint64_t k = 0; k < 8; ++k)
        EXPECT_EQ(tlb.lookup(k).level, TlbLevel::Miss);
}

TEST(PageWalkCache, DeepestLevelWins)
{
    PageWalkCache pwc(tiny_tlb());
    std::uint64_t gvpn = (1ull << 27) | (2ull << 18) | (3ull << 9) | 4;
    pwc.insert(gvpn, 0, 100);  // PML4E -> PDPT node 100
    pwc.insert(gvpn, 1, 200);  // PDPTE -> PD node 200
    pwc.insert(gvpn, 2, 300);  // PDE   -> PT node 300
    auto hit = pwc.lookup(gvpn);
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->resume_level, 3u);
    EXPECT_EQ(hit->node_frame, 300u);
}

TEST(PageWalkCache, PrefixSharingAcrossNeighbours)
{
    PageWalkCache pwc(tiny_tlb());
    std::uint64_t gvpn_a = (1ull << 9) | 5;  // same PD entry as b
    std::uint64_t gvpn_b = (1ull << 9) | 6;
    pwc.insert(gvpn_a, 2, 42);
    auto hit = pwc.lookup(gvpn_b);
    ASSERT_TRUE(hit) << "neighbouring pages share the PDE";
    EXPECT_EQ(hit->node_frame, 42u);
    // A page under a different PDE misses.
    EXPECT_FALSE(pwc.lookup((2ull << 9) | 5).has_value());
}

TEST(PageWalkCache, UpperLevelHitWhenDeepMisses)
{
    PageWalkCache pwc(tiny_tlb());
    std::uint64_t gvpn = (7ull << 27) | (1ull << 18);
    pwc.insert(gvpn, 0, 11);
    std::uint64_t sibling = (7ull << 27) | (2ull << 18);  // same PML4E
    auto hit = pwc.lookup(sibling);
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->resume_level, 1u);
    EXPECT_EQ(hit->node_frame, 11u);
}

TEST(PageWalkCache, DisabledNeverHits)
{
    TlbConfig config = tiny_tlb();
    config.pwc_enabled = false;
    PageWalkCache pwc(config);
    pwc.insert(1, 0, 5);
    EXPECT_FALSE(pwc.lookup(1).has_value());
    EXPECT_FALSE(pwc.enabled());
}

TEST(NestedTlb, RoundTrip)
{
    NestedTlb ntlb(tiny_tlb());
    EXPECT_FALSE(ntlb.lookup(9).has_value());
    ntlb.insert(9, 99);
    auto v = ntlb.lookup(9);
    ASSERT_TRUE(v);
    EXPECT_EQ(*v, 99u);
    ntlb.invalidate(9);
    EXPECT_FALSE(ntlb.lookup(9).has_value());
}

TEST(NestedTlb, DisabledNeverHits)
{
    TlbConfig config = tiny_tlb();
    config.nested_tlb_enabled = false;
    NestedTlb ntlb(config);
    ntlb.insert(1, 2);
    EXPECT_FALSE(ntlb.lookup(1).has_value());
}

}  // namespace
}  // namespace ptm::tlb
