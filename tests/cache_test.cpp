/**
 * @file
 * Unit tests for the cache model: the LRU reference policy, single cache
 * behaviour, and the multi-level hierarchy with latency accounting.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/hierarchy.hpp"
#include "common/rng.hpp"

namespace ptm::cache {
namespace {

// ---------------------------------------------------------------------
// Reference LRU policy: one object per set, the obvious implementation.
// Cache ranks its ways in a packed recency word instead; this stamp
// model is the independent reference that ReferenceCache below is built
// from.

/// True LRU via per-way use stamps; victim is the smallest stamp, lowest
/// way on ties (invalid ways are chosen by the cache before consulting
/// the policy).
class LruPolicy {
  public:
    explicit LruPolicy(unsigned ways) : stamps_(ways, 0) {}

    /// Record that @p way was accessed (hit or fill).
    void touch(unsigned way) { stamps_[way] = ++clock_; }

    /// Pick the way to evict.
    unsigned
    victim() const
    {
        unsigned best = 0;
        for (unsigned w = 1; w < stamps_.size(); ++w) {
            if (stamps_[w] < stamps_[best])
                best = w;
        }
        return best;
    }

  private:
    std::vector<std::uint64_t> stamps_;
    std::uint64_t clock_ = 0;
};

TEST(Replacement, LruEvictsLeastRecentlyUsed)
{
    LruPolicy lru(4);
    lru.touch(0);
    lru.touch(1);
    lru.touch(2);
    lru.touch(3);
    lru.touch(0);  // 1 is now the oldest
    EXPECT_EQ(lru.victim(), 1u);
    lru.touch(1);
    EXPECT_EQ(lru.victim(), 2u);
}

TEST(Cache, HitAfterMiss)
{
    Cache cache({"t", 4096, 4});
    EXPECT_FALSE(cache.access(10, AccessKind::Data));
    EXPECT_TRUE(cache.access(10, AccessKind::Data));
    EXPECT_EQ(cache.stats().misses[0].value(), 1u);
    EXPECT_EQ(cache.stats().hits[0].value(), 1u);
}

TEST(Cache, ConflictEvictionWithLru)
{
    // 4 KiB, 2-way, 64B lines -> 32 sets. Lines k, k+32, k+64 map to the
    // same set; the third install evicts the least recently used.
    Cache cache({"t", 4096, 2});
    EXPECT_FALSE(cache.access(0, AccessKind::Data));
    EXPECT_FALSE(cache.access(32, AccessKind::Data));
    EXPECT_FALSE(cache.access(64, AccessKind::Data));  // evicts line 0
    EXPECT_FALSE(cache.access(0, AccessKind::Data));
    EXPECT_TRUE(cache.access(64, AccessKind::Data));   // survived
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    Cache cache({"t", 4096, 2});
    cache.access(0, AccessKind::Data);
    EXPECT_TRUE(cache.probe(0));
    EXPECT_FALSE(cache.probe(99));
    // probe counts nothing
    EXPECT_EQ(cache.stats().total_hits() + cache.stats().total_misses(),
              1u);
}

TEST(Cache, InvalidateAndFlush)
{
    // flush() invalidates every line; a flushed set refills its empty
    // ways before it evicts anything.
    Cache cache({"t", 4096, 2});
    cache.access(5, AccessKind::Data);
    cache.access(6, AccessKind::Data);
    EXPECT_EQ(cache.resident_lines(), 2u);
    cache.flush();
    EXPECT_FALSE(cache.probe(5));
    EXPECT_FALSE(cache.probe(6));
    EXPECT_EQ(cache.resident_lines(), 0u);
    EXPECT_FALSE(cache.access(5, AccessKind::Data));
    EXPECT_FALSE(cache.access(37, AccessKind::Data));  // same set as 5
    EXPECT_TRUE(cache.probe(5));
    EXPECT_EQ(cache.resident_lines(), 2u);
}

TEST(Cache, PerKindStats)
{
    Cache cache({"t", 4096, 4});
    cache.access(1, AccessKind::Data);
    cache.access(2, AccessKind::GuestPt);
    cache.access(3, AccessKind::HostPt);
    cache.access(3, AccessKind::HostPt);
    EXPECT_EQ(cache.stats().misses[unsigned(AccessKind::Data)].value(), 1u);
    EXPECT_EQ(cache.stats().misses[unsigned(AccessKind::GuestPt)].value(),
              1u);
    EXPECT_EQ(cache.stats().misses[unsigned(AccessKind::HostPt)].value(),
              1u);
    EXPECT_EQ(cache.stats().hits[unsigned(AccessKind::HostPt)].value(), 1u);
}

HierarchyConfig
tiny_config()
{
    HierarchyConfig config;
    config.l1 = {"L1D", 1024, 2};
    config.l2 = {"L2", 4096, 4};
    config.llc = {"LLC", 16384, 4};
    return config;
}

TEST(Hierarchy, ColdAccessServedByMemoryThenL1)
{
    MemoryHierarchy hier(tiny_config(), 2);
    AccessResult first = hier.access(0, 0x1000, AccessKind::Data);
    EXPECT_EQ(first.served_by, ServedBy::Memory);
    EXPECT_EQ(first.latency, hier.config().memory_latency);
    AccessResult second = hier.access(0, 0x1000, AccessKind::Data);
    EXPECT_EQ(second.served_by, ServedBy::L1);
    EXPECT_EQ(second.latency, hier.config().l1_latency);
}

TEST(Hierarchy, SharedLlcPrivateL1)
{
    MemoryHierarchy hier(tiny_config(), 2);
    hier.access(0, 0x2000, AccessKind::Data);  // core 0 warms all levels
    // Core 1 misses its private L1/L2 but hits the shared LLC.
    AccessResult r = hier.access(1, 0x2000, AccessKind::Data);
    EXPECT_EQ(r.served_by, ServedBy::Llc);
}

TEST(Hierarchy, SameLineDifferentWordsHit)
{
    MemoryHierarchy hier(tiny_config(), 1);
    hier.access(0, 0x3000, AccessKind::Data);
    AccessResult r = hier.access(0, 0x3008, AccessKind::Data);
    EXPECT_EQ(r.served_by, ServedBy::L1) << "same 64B line must hit";
}

TEST(Hierarchy, ServedByMemoryCounters)
{
    MemoryHierarchy hier(tiny_config(), 1);
    hier.access(0, 0x0, AccessKind::HostPt);
    hier.access(0, 0x40, AccessKind::HostPt);
    hier.access(0, 0x0, AccessKind::HostPt);
    EXPECT_EQ(hier.stats().served_by_memory(AccessKind::HostPt), 2u);
    EXPECT_EQ(hier.stats().accesses[unsigned(AccessKind::HostPt)].value(),
              3u);
}

TEST(Hierarchy, CapacityEvictionFallsBackToMemory)
{
    MemoryHierarchy hier(tiny_config(), 1);
    // Touch far more distinct lines than the LLC holds (16 KiB = 256
    // lines), then re-touch the first line: it must have been evicted.
    for (Addr a = 0; a < 64 * 1024; a += kCacheLineSize)
        hier.access(0, a, AccessKind::Data);
    AccessResult r = hier.access(0, 0, AccessKind::Data);
    EXPECT_EQ(r.served_by, ServedBy::Memory);
}

TEST(Hierarchy, FlushAllClearsEverything)
{
    MemoryHierarchy hier(tiny_config(), 2);
    hier.access(0, 0x5000, AccessKind::Data);
    hier.flush_all();
    EXPECT_FALSE(hier.probe(0, 0x5000));
    AccessResult r = hier.access(0, 0x5000, AccessKind::Data);
    EXPECT_EQ(r.served_by, ServedBy::Memory);
}

TEST(Hierarchy, LatencyOrdering)
{
    MemoryHierarchy hier(tiny_config(), 1);
    EXPECT_LT(hier.latency_of(ServedBy::L1), hier.latency_of(ServedBy::L2));
    EXPECT_LT(hier.latency_of(ServedBy::L2),
              hier.latency_of(ServedBy::Llc));
    EXPECT_LT(hier.latency_of(ServedBy::Llc),
              hier.latency_of(ServedBy::Memory));
}

/// Property sweep: a working-set that fits in the cache eventually stops
/// missing.
TEST(PolicySweep, FittingWorkingSetConverges)
{
    Cache cache({"t", 8192, 4});  // 128 lines
    // 64-line working set, touched round-robin for many rounds.
    std::uint64_t misses_last_round = 0;
    for (int round = 0; round < 50; ++round) {
        std::uint64_t before = cache.stats().total_misses();
        for (std::uint64_t line = 0; line < 64; ++line)
            cache.access(line, AccessKind::Data);  // 2 lines per set
        misses_last_round = cache.stats().total_misses() - before;
    }
    EXPECT_EQ(misses_last_round, 0u)
        << "LRU should retain a working set half its capacity";
}

// ---------------------------------------------------------------------
// Construction-time geometry validation: a malformed shape must die with
// a clear message instead of mis-indexing silently.

TEST(CacheDeathTest, ZeroWaysIsFatal)
{
    EXPECT_EXIT(Cache cache({"bad", 4096, 0}),
                ::testing::ExitedWithCode(1), "zero ways");
}

TEST(CacheDeathTest, MoreThanSixteenWaysIsFatal)
{
    // One 17-way set: a recency word ranks at most 16 ways.
    EXPECT_EXIT(Cache cache({"wide", 17 * kCacheLineSize, 17}),
                ::testing::ExitedWithCode(1), "wide: 17 ways exceed");
}

TEST(CacheDeathTest, TagOverflowPanics)
{
    // One 4-way set: a line's tag is the whole line number, and the
    // largest storable tag is one below the invalid tag ~0.
    Cache cache({"tiny", 4 * kCacheLineSize, 4});
    EXPECT_FALSE(cache.access(0xfffffffeULL, AccessKind::Data));
    EXPECT_TRUE(cache.probe(0xfffffffeULL));
    EXPECT_DEATH(cache.access(0xffffffffULL, AccessKind::Data),
                 "tiny: line 4294967295 overflows the 32-bit tag store");
}

TEST(CacheDeathTest, NonPowerOfTwoSetCountIsFatal)
{
    // 12 KiB, 4-way, 64B lines -> 48 sets.
    EXPECT_EXIT(Cache cache({"bad", 12288, 4}),
                ::testing::ExitedWithCode(1),
                "not a nonzero power of two");
}

TEST(CacheDeathTest, ZeroSetsIsFatal)
{
    // 64 bytes across 4 ways: less than one full set.
    EXPECT_EXIT(Cache cache({"bad", 64, 4}),
                ::testing::ExitedWithCode(1),
                "not a nonzero power of two");
}

// ---------------------------------------------------------------------
// Reference-model comparison: the flattened Cache against the obvious
// per-set implementation — a tag/valid pair per way plus one LruPolicy
// object per set. Any divergence in hit/miss outcome or eviction choice
// shows up as a mismatch on a randomized trace.

class ReferenceCache {
  public:
    explicit ReferenceCache(const CacheGeometry &geometry)
        : ways_(geometry.ways), num_sets_(geometry.num_sets())
    {
        while ((std::uint64_t{1} << set_shift_) < num_sets_)
            ++set_shift_;
        for (std::uint64_t i = 0; i < num_sets_; ++i) {
            sets_.push_back(Set{std::vector<std::uint64_t>(ways_, 0),
                                std::vector<bool>(ways_, false),
                                LruPolicy(ways_)});
        }
    }

    bool
    access(std::uint64_t line)
    {
        Set &set = sets_[line & (num_sets_ - 1)];
        const std::uint64_t tag = line >> set_shift_;
        for (unsigned w = 0; w < ways_; ++w) {
            if (set.valid[w] && set.tags[w] == tag) {
                set.policy.touch(w);
                return true;
            }
        }
        unsigned way = ways_;
        for (unsigned w = 0; w < ways_; ++w) {
            if (!set.valid[w]) {
                way = w;
                break;
            }
        }
        if (way == ways_)
            way = set.policy.victim();
        set.valid[way] = true;
        set.tags[way] = tag;
        set.policy.touch(way);
        return false;
    }

    void
    flush()
    {
        for (Set &set : sets_)
            set.valid.assign(ways_, false);
    }

    bool
    resident(std::uint64_t line) const
    {
        const Set &set = sets_[line & (num_sets_ - 1)];
        const std::uint64_t tag = line >> set_shift_;
        for (unsigned w = 0; w < ways_; ++w) {
            if (set.valid[w] && set.tags[w] == tag)
                return true;
        }
        return false;
    }

    std::uint64_t
    resident_lines() const
    {
        std::uint64_t n = 0;
        for (const Set &set : sets_) {
            for (bool valid : set.valid)
                n += valid ? 1 : 0;
        }
        return n;
    }

  private:
    struct Set {
        std::vector<std::uint64_t> tags;
        std::vector<bool> valid;
        LruPolicy policy;
    };

    unsigned ways_;
    std::uint64_t num_sets_;
    unsigned set_shift_ = 0;
    std::vector<Set> sets_;
};

TEST(ReferenceSweep, RandomizedTraceMatchesReferenceModel)
{
    // 32 sets at each associativity from direct mapped to 16 ways; a
    // line pool four times the capacity keeps every set churning through
    // evictions. 3 and 12 ways are not powers of two: the MRU rank of
    // Cache's recency word then sits at nibble 2 or 11, with unused
    // nibbles above it. A rare flush (~0.1% of ops) makes sets refill from
    // empty, where the reference picks the first invalid way and Cache
    // relies on empty ways ranking below used ones, lowest first.
    for (unsigned ways : {1u, 2u, 3u, 4u, 8u, 12u, 16u}) {
        SCOPED_TRACE(std::to_string(ways) + " ways");
        const std::uint64_t sets = 32;
        const CacheGeometry geometry{"t", sets * ways * kCacheLineSize,
                                     ways};
        Cache flat(geometry);
        ReferenceCache ref(geometry);

        const std::uint64_t pool = sets * ways * 4;
        Rng trace(1234);
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        for (int i = 0; i < 20000; ++i) {
            std::uint64_t line = trace.below(pool);
            if (trace.chance(0.001)) {
                flat.flush();
                ref.flush();
                continue;
            }
            bool flat_hit = flat.access(line, AccessKind::Data);
            bool ref_hit = ref.access(line);
            ASSERT_EQ(flat_hit, ref_hit)
                << "diverged at access " << i << ", line " << line;
            flat_hit ? ++hits : ++misses;
        }
        EXPECT_EQ(flat.stats().total_hits(), hits);
        EXPECT_EQ(flat.stats().total_misses(), misses);
        EXPECT_GT(hits, 0u);
        EXPECT_GT(misses, 0u);

        // The end state agrees line by line, through the non-updating
        // probe path as well as the occupancy count.
        EXPECT_EQ(flat.resident_lines(), ref.resident_lines());
        for (std::uint64_t line = 0; line < pool; ++line)
            ASSERT_EQ(flat.probe(line), ref.resident(line)) << line;
    }
}

}  // namespace
}  // namespace ptm::cache
