/**
 * @file
 * Unit tests for src/common: address arithmetic, RNG, stats primitives,
 * the set tag scan.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/tag_scan.hpp"
#include "common/types.hpp"

namespace ptm {
namespace {

TEST(Types, PageArithmetic)
{
    EXPECT_EQ(page_floor(0x1234), 0x1000u);
    EXPECT_EQ(page_ceil(0x1234), 0x2000u);
    EXPECT_EQ(page_ceil(0x1000), 0x1000u);
    EXPECT_EQ(page_number(0x3fff), 3u);
    EXPECT_EQ(page_address(3), 0x3000u);
    EXPECT_EQ(line_number(0x7f), 1u);
    EXPECT_EQ(line_number(0x80), 2u);
}

TEST(Types, ConstantsMatchX86)
{
    EXPECT_EQ(kPageSize, 4096u);
    EXPECT_EQ(kCacheLineSize, 64u);
    EXPECT_EQ(kPtesPerCacheLine, 8u);
    EXPECT_EQ(kPtesPerNode, 512u);
    EXPECT_EQ(kPtLevels, 4u);
    // The paper's 32 KiB reservation: 8 PTEs/line * 4 KiB pages.
    EXPECT_EQ(kReservationBytes, 32u * 1024u);
}

TEST(Types, StrongPageIds)
{
    Gvpn a{5};
    Gvpn b{5};
    Gvpn c{6};
    EXPECT_EQ(a, b);
    EXPECT_LT(a, c);
    EXPECT_EQ(a.address(), 5u * kPageSize);
    EXPECT_EQ(a.next(), c);
    // Gvpn and Gfn are distinct types: no accidental cross-assignment.
    static_assert(!std::is_convertible_v<Gvpn, Gfn>);
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a() == b())
            ++same;
    }
    EXPECT_LE(same, 1);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        std::uint64_t v = rng.below(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIsInUnitInterval)
{
    Rng rng(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(11);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t v = rng.between(3, 6);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 6u);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AverageBasics)
{
    Average a;
    EXPECT_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_EQ(a.count(), 2u);
}

TEST(Stats, HistogramClampsOverflow)
{
    Histogram h(BucketPolicy::Linear, 4);
    h.record(0);
    h.record(3);
    h.record(99);  // clamps into the last bucket
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(3), 2u);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 99u);
}

TEST(Stats, HistogramLog2Buckets)
{
    Histogram h;  // default: full-range Log2
    EXPECT_EQ(h.policy(), BucketPolicy::Log2);
    EXPECT_EQ(h.bucket_count(), Histogram::kLog2Buckets);
    h.record(0);
    h.record(1);
    h.record(2);
    h.record(3);
    h.record(1024);
    EXPECT_EQ(h.bucket(0), 1u);  // value 0
    EXPECT_EQ(h.bucket(1), 1u);  // value 1
    EXPECT_EQ(h.bucket(2), 2u);  // values 2..3
    EXPECT_EQ(h.bucket(11), 1u);  // 1024 = 2^10, bit width 11
    EXPECT_EQ(h.sum(), 1030u);
}

TEST(Stats, MetricSetPercentChange)
{
    MetricSet base;
    base.set("walk_cycles", 100.0);
    base.set("exec_time", 50.0);
    MetricSet now;
    now.set("walk_cycles", 161.0);
    now.set("exec_time", 55.5);
    MetricSet delta = now.percent_change_from(base);
    EXPECT_NEAR(delta.get("walk_cycles"), 61.0, 1e-9);
    EXPECT_NEAR(delta.get("exec_time"), 11.0, 1e-9);
}

TEST(Log, Strprintf)
{
    EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
}

TEST(Error, PtmThrowFormatsMessageAndLocation)
{
    try {
        ptm_throw("guest OOM while testing pid %d", 42);
        FAIL() << "ptm_throw returned";
    } catch (const SimError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("guest OOM while testing pid 42"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("common_test.cpp"), std::string::npos) << what;
    }
}

TEST(Error, SimErrorIsARuntimeError)
{
    // Generic handlers (the suite driver's safety nets) must be able to
    // catch it as std::exception.
    EXPECT_THROW(ptm_throw("x"), std::runtime_error);
}

// ---------------------------------------------------------------------
// find_tag() against find_tag_scalar(), over the padded runs that
// cache::Cache and tlb::AssocCache scan: padding lanes hold the invalid
// tag ~0, which no searched tag equals.

constexpr std::uint32_t kPad = ~0U;

TEST(TagScan, PaddedWaysRoundsUpToWholeCompares)
{
    EXPECT_EQ(padded_ways(1), 4u);
    EXPECT_EQ(padded_ways(4), 4u);
    EXPECT_EQ(padded_ways(5), 8u);
    EXPECT_EQ(padded_ways(12), 12u);
    EXPECT_EQ(padded_ways(16), 16u);
    EXPECT_EQ(padded_ways(32), 32u);
}

TEST(TagScan, MatchAtEveryPositionAgreesWithScalar)
{
    for (unsigned stride : {4u, 8u, 12u, 16u}) {
        SCOPED_TRACE("stride " + std::to_string(stride));
        std::vector<std::uint32_t> tags(stride);
        for (unsigned w = 0; w < stride; ++w)
            tags[w] = 1000 + 7 * w;
        for (unsigned w = 0; w < stride; ++w) {
            EXPECT_EQ(find_tag(tags.data(), stride, tags[w], stride), w);
            EXPECT_EQ(find_tag_scalar(tags.data(), stride, tags[w], stride),
                      w);
        }
        // A repeated tag reports its first way, in any group.
        for (unsigned first = 0; first < stride; ++first) {
            for (unsigned later = first + 1; later < stride; ++later) {
                std::vector<std::uint32_t> dup = tags;
                dup[later] = dup[first];
                ASSERT_EQ(find_tag(dup.data(), stride, dup[first], stride),
                          first)
                    << "first " << first << ", later " << later;
            }
        }
    }
}

TEST(TagScan, PaddingLanesNeverMatch)
{
    // Every associativity a padded run can hold, ways filled with real
    // tags (some repeated) and the rest padding: each real tag's search
    // agrees with the scalar loop over the ways alone, so no result lies
    // in the padding.
    Rng rng(7);
    for (unsigned ways = 1; ways <= 16; ++ways) {
        SCOPED_TRACE(std::to_string(ways) + " ways");
        const unsigned stride = padded_ways(ways);
        std::vector<std::uint32_t> tags(stride, kPad);
        for (int round = 0; round < 200; ++round) {
            for (unsigned w = 0; w < ways; ++w)
                tags[w] = static_cast<std::uint32_t>(rng.below(2 * ways));
            for (std::uint32_t tag = 0; tag < 2 * ways + 1; ++tag) {
                const unsigned w = find_tag(tags.data(), stride, tag, ways);
                ASSERT_EQ(w, find_tag_scalar(tags.data(), ways, tag, ways))
                    << "tag " << tag;
                ASSERT_LE(w, ways);
            }
        }
    }
}

TEST(TagScan, NoMatchReturnsNone)
{
    for (unsigned stride : {4u, 8u, 12u, 16u}) {
        const std::vector<std::uint32_t> tags(stride, kPad);
        EXPECT_EQ(find_tag(tags.data(), stride, 5, 99), 99u);
        EXPECT_EQ(find_tag_scalar(tags.data(), stride, 5, 99), 99u);
        std::vector<std::uint32_t> full(stride);
        for (unsigned w = 0; w < stride; ++w)
            full[w] = w;
        EXPECT_EQ(find_tag(full.data(), stride, stride, 7), 7u);
        EXPECT_EQ(find_tag(full.data(), stride, kPad - 1, 7), 7u);
    }
}

TEST(AssertDeathTest, MessageCarriesConditionAndContext)
{
    EXPECT_DEATH(ptm_assert(1 + 1 == 3, "while merging block %d", 9),
                 "assertion failed: 1 \\+ 1 == 3: while merging block 9");
}

TEST(AssertDeathTest, BareAssertReportsCondition)
{
    EXPECT_DEATH(ptm_assert(false), "assertion failed: false");
}

}  // namespace
}  // namespace ptm
