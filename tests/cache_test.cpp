/**
 * @file
 * Unit tests for the cache model: replacement policies, single cache
 * behaviour, and the multi-level hierarchy with latency accounting.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/hierarchy.hpp"
#include "common/rng.hpp"

namespace ptm::cache {
namespace {

// ---------------------------------------------------------------------
// Reference replacement policies: one virtual object per set, the
// obvious implementation of each ReplacementKind. Cache inlines all
// three into its set slab; ReferenceCache below is built from these.

/**
 * Per-set replacement state. `touch` records a use of a way, `victim`
 * selects the way to evict (invalid ways are chosen by the cache before
 * consulting the policy).
 */
class ReplacementPolicy {
  public:
    virtual ~ReplacementPolicy() = default;

    /// Record that @p way was accessed (hit or fill).
    virtual void touch(unsigned way) = 0;

    /// Pick the way to evict.
    virtual unsigned victim() = 0;
};

/// True LRU via per-way use stamps; victim is the smallest stamp.
class LruPolicy final : public ReplacementPolicy {
  public:
    explicit LruPolicy(unsigned ways) : stamps_(ways, 0) {}

    void touch(unsigned way) override { stamps_[way] = ++clock_; }

    unsigned
    victim() override
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

/// Tree pseudo-LRU over a power-of-two (rounded-up) number of ways.
class TreePlruPolicy final : public ReplacementPolicy {
  public:
    explicit TreePlruPolicy(unsigned ways) : ways_(ways)
    {
        leaves_ = 1;
        while (leaves_ < ways_)
            leaves_ <<= 1;
        bits_.assign(leaves_, false);  // node 1..leaves_-1 used
    }

    void
    touch(unsigned way) override
    {
        // Walk from root to the leaf for `way`, pointing each node away
        // from the path taken.
        unsigned node = 1;
        unsigned span = leaves_;
        while (span > 1) {
            span >>= 1;
            bool right = way >= span;
            bits_[node] = !right;  // point away from the touched half
            node = node * 2 + (right ? 1 : 0);
            if (right)
                way -= span;
        }
    }

    unsigned
    victim() override
    {
        // Follow the pointers; clamp to a valid way for non-power-of-two
        // configurations.
        unsigned node = 1;
        unsigned way = 0;
        unsigned span = leaves_;
        while (span > 1) {
            span >>= 1;
            bool right = bits_[node];
            node = node * 2 + (right ? 1 : 0);
            if (right)
                way += span;
        }
        return way >= ways_ ? ways_ - 1 : way;
    }

  private:
    unsigned ways_;
    unsigned leaves_;
    std::vector<bool> bits_;
};

/// Uniform random victim selection.
class RandomPolicy final : public ReplacementPolicy {
  public:
    RandomPolicy(unsigned ways, Rng *rng) : ways_(ways), rng_(rng)
    {
        if (rng_ == nullptr)
            ptm_fatal("random replacement needs an Rng");
    }

    void touch(unsigned) override {}
    unsigned victim() override
    {
        return static_cast<unsigned>(rng_->below(ways_));
    }

  private:
    unsigned ways_;
    Rng *rng_;
};

/// Construct a policy instance for one set of @p ways ways.
std::unique_ptr<ReplacementPolicy>
make_replacement_policy(ReplacementKind kind, unsigned ways, Rng *rng)
{
    if (ways == 0)
        ptm_fatal("replacement policy over zero ways");
    switch (kind) {
      case ReplacementKind::Lru:
        return std::make_unique<LruPolicy>(ways);
      case ReplacementKind::TreePlru:
        return std::make_unique<TreePlruPolicy>(ways);
      case ReplacementKind::Random:
        return std::make_unique<RandomPolicy>(ways, rng);
    }
    ptm_panic("unreachable replacement kind");
}

TEST(Replacement, LruEvictsLeastRecentlyUsed)
{
    auto lru = make_replacement_policy(ReplacementKind::Lru, 4, nullptr);
    lru->touch(0);
    lru->touch(1);
    lru->touch(2);
    lru->touch(3);
    lru->touch(0);  // 1 is now the oldest
    EXPECT_EQ(lru->victim(), 1u);
    lru->touch(1);
    EXPECT_EQ(lru->victim(), 2u);
}

TEST(Replacement, TreePlruAvoidsRecentWay)
{
    auto plru =
        make_replacement_policy(ReplacementKind::TreePlru, 8, nullptr);
    for (unsigned w = 0; w < 8; ++w)
        plru->touch(w);
    // The victim is never the most recently touched way.
    for (unsigned w = 0; w < 8; ++w) {
        plru->touch(w);
        EXPECT_NE(plru->victim(), w);
    }
}

TEST(Replacement, RandomStaysInRange)
{
    Rng rng(1);
    auto random =
        make_replacement_policy(ReplacementKind::Random, 4, &rng);
    for (int i = 0; i < 100; ++i)
        EXPECT_LT(random->victim(), 4u);
}

TEST(Cache, HitAfterMiss)
{
    Cache cache({"t", 4096, 4, ReplacementKind::Lru});
    EXPECT_FALSE(cache.access(10, AccessKind::Data));
    EXPECT_TRUE(cache.access(10, AccessKind::Data));
    EXPECT_EQ(cache.stats().misses[0].value(), 1u);
    EXPECT_EQ(cache.stats().hits[0].value(), 1u);
}

TEST(Cache, ConflictEvictionWithLru)
{
    // 4 KiB, 2-way, 64B lines -> 32 sets. Lines k, k+32, k+64 map to the
    // same set; the third install evicts the least recently used.
    Cache cache({"t", 4096, 2, ReplacementKind::Lru});
    EXPECT_FALSE(cache.access(0, AccessKind::Data));
    EXPECT_FALSE(cache.access(32, AccessKind::Data));
    EXPECT_FALSE(cache.access(64, AccessKind::Data));  // evicts line 0
    EXPECT_FALSE(cache.access(0, AccessKind::Data));
    EXPECT_TRUE(cache.access(64, AccessKind::Data));   // survived
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    Cache cache({"t", 4096, 2, ReplacementKind::Lru});
    cache.access(0, AccessKind::Data);
    EXPECT_TRUE(cache.probe(0));
    EXPECT_FALSE(cache.probe(99));
    // probe counts nothing
    EXPECT_EQ(cache.stats().total_hits() + cache.stats().total_misses(),
              1u);
}

TEST(Cache, InvalidateAndFlush)
{
    Cache cache({"t", 4096, 2, ReplacementKind::Lru});
    cache.access(5, AccessKind::Data);
    cache.access(6, AccessKind::Data);
    cache.invalidate(5);
    EXPECT_FALSE(cache.probe(5));
    EXPECT_TRUE(cache.probe(6));
    cache.flush();
    EXPECT_EQ(cache.resident_lines(), 0u);
}

TEST(Cache, PerKindStats)
{
    Cache cache({"t", 4096, 4, ReplacementKind::Lru});
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
    config.l1 = {"L1D", 1024, 2, ReplacementKind::Lru};
    config.l2 = {"L2", 4096, 4, ReplacementKind::Lru};
    config.llc = {"LLC", 16384, 4, ReplacementKind::Lru};
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

/// Property sweep: for every replacement policy, a working-set that fits
/// in the cache eventually stops missing.
class PolicySweep : public ::testing::TestWithParam<ReplacementKind> {};

TEST_P(PolicySweep, FittingWorkingSetConverges)
{
    Rng rng(9);
    Cache cache({"t", 8192, 4, GetParam()}, &rng);  // 128 lines
    // 64-line working set, touched round-robin for many rounds.
    std::uint64_t misses_last_round = 0;
    for (int round = 0; round < 50; ++round) {
        std::uint64_t before = cache.stats().total_misses();
        for (std::uint64_t line = 0; line < 64; ++line)
            cache.access(line, AccessKind::Data);  // 2 lines per set
        misses_last_round = cache.stats().total_misses() - before;
    }
    EXPECT_EQ(misses_last_round, 0u)
        << "every policy should retain a working set half its capacity";
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicySweep,
                         ::testing::Values(ReplacementKind::Lru,
                                           ReplacementKind::TreePlru,
                                           ReplacementKind::Random));

// ---------------------------------------------------------------------
// Construction-time geometry validation: a malformed shape must die with
// a clear message instead of mis-indexing silently.

TEST(CacheDeathTest, ZeroWaysIsFatal)
{
    EXPECT_EXIT(Cache cache({"bad", 4096, 0, ReplacementKind::Lru}),
                ::testing::ExitedWithCode(1), "zero ways");
}

TEST(CacheDeathTest, NonPowerOfTwoSetCountIsFatal)
{
    // 12 KiB, 4-way, 64B lines -> 48 sets.
    EXPECT_EXIT(Cache cache({"bad", 12288, 4, ReplacementKind::Lru}),
                ::testing::ExitedWithCode(1),
                "not a nonzero power of two");
}

TEST(CacheDeathTest, ZeroSetsIsFatal)
{
    // 64 bytes across 4 ways: less than one full set.
    EXPECT_EXIT(Cache cache({"bad", 64, 4, ReplacementKind::Lru}),
                ::testing::ExitedWithCode(1),
                "not a nonzero power of two");
}

TEST(CacheDeathTest, RandomReplacementWithoutRngIsFatal)
{
    EXPECT_EXIT(Cache cache({"bad", 4096, 4, ReplacementKind::Random}),
                ::testing::ExitedWithCode(1), "needs an Rng");
}

// ---------------------------------------------------------------------
// Reference-model comparison: the flattened Cache against the obvious
// per-set implementation — a tag/valid pair per way plus one virtual
// ReplacementPolicy object per set. Any divergence in hit/miss outcome
// or eviction choice shows up as a mismatch on a randomized trace.

class ReferenceCache {
  public:
    ReferenceCache(const CacheGeometry &geometry, Rng *rng)
        : ways_(geometry.ways), num_sets_(geometry.num_sets())
    {
        while ((std::uint64_t{1} << set_shift_) < num_sets_)
            ++set_shift_;
        sets_.resize(num_sets_);
        for (Set &set : sets_) {
            set.tags.assign(ways_, 0);
            set.valid.assign(ways_, false);
            set.policy = make_replacement_policy(geometry.replacement,
                                                 ways_, rng);
        }
    }

    bool
    access(std::uint64_t line)
    {
        Set &set = sets_[line & (num_sets_ - 1)];
        const std::uint64_t tag = line >> set_shift_;
        for (unsigned w = 0; w < ways_; ++w) {
            if (set.valid[w] && set.tags[w] == tag) {
                set.policy->touch(w);
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
            way = set.policy->victim();
        set.valid[way] = true;
        set.tags[way] = tag;
        set.policy->touch(way);
        return false;
    }

    void
    invalidate(std::uint64_t line)
    {
        Set &set = sets_[line & (num_sets_ - 1)];
        const std::uint64_t tag = line >> set_shift_;
        for (unsigned w = 0; w < ways_; ++w) {
            if (set.valid[w] && set.tags[w] == tag) {
                set.valid[w] = false;
                return;
            }
        }
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
        std::unique_ptr<ReplacementPolicy> policy;
    };

    unsigned ways_;
    std::uint64_t num_sets_;
    unsigned set_shift_ = 0;
    std::vector<Set> sets_;
};

class ReferenceSweep : public ::testing::TestWithParam<ReplacementKind> {};

TEST_P(ReferenceSweep, RandomizedTraceMatchesReferenceModel)
{
    // 32 sets at each associativity from direct mapped to 16 ways; a
    // line pool four times the capacity keeps every set churning through
    // evictions. A sprinkle of invalidations exercises the stale-tag and
    // refill paths (the empty-way scan).
    for (unsigned ways : {1u, 2u, 4u, 8u, 16u}) {
        SCOPED_TRACE(std::to_string(ways) + " ways");
        const std::uint64_t sets = 32;
        const CacheGeometry geometry{"t", sets * ways * kCacheLineSize,
                                     ways, GetParam()};
        Rng flat_rng(77);
        Rng ref_rng(77);  // same seed: eviction draws must align one-to-one
        Cache flat(geometry, &flat_rng);
        ReferenceCache ref(geometry, &ref_rng);

        const std::uint64_t pool = sets * ways * 4;
        Rng trace(1234);
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        for (int i = 0; i < 20000; ++i) {
            std::uint64_t line = trace.below(pool);
            if (trace.chance(0.02)) {
                flat.invalidate(line);
                ref.invalidate(line);
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

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReferenceSweep,
                         ::testing::Values(ReplacementKind::Lru,
                                           ReplacementKind::TreePlru,
                                           ReplacementKind::Random));

TEST(Cache, TreePlruNonPowerOfTwoWaysMatchesReference)
{
    // 6 ways rounds up to 8 PLRU leaves; the victim clamp must agree
    // with the reference policy's.
    const CacheGeometry geometry{"t", 6144, 6, ReplacementKind::TreePlru};
    Cache flat(geometry);
    ReferenceCache ref(geometry, nullptr);
    Rng trace(5);
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t line = trace.below(256);
        ASSERT_EQ(flat.access(line, AccessKind::Data), ref.access(line))
            << "diverged at access " << i << ", line " << line;
    }
}

}  // namespace
}  // namespace ptm::cache
