/**
 * @file
 * First-match search over one set's 32-bit tags, four ways per compare.
 *
 * cache::Cache and tlb::AssocCache store each set's tags as a contiguous
 * run of padded_ways(ways) entries. The padding lanes hold the
 * structure's invalid tag, which no searched tag ever equals, so
 * find_tag() compares whole 16-byte groups and needs no scalar tail: one
 * _mm_cmpeq_epi32 per four ways, _mm_movemask_ps packs the four lane
 * results into four bits of a 32-bit match mask, and countr_zero of the
 * mask is the first matching way. The scan has no data-dependent branch
 * until the hit/miss test on the finished mask. SSE2 is part of the
 * x86-64 baseline, so the default build takes the vector path;
 * find_tag_scalar() is the body where __SSE2__ is undefined and the unit
 * tests' reference.
 */
#pragma once

#include <bit>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ptm {

/// Ways covered by one vector compare; set tag runs are padded to a
/// multiple of this.
inline constexpr unsigned kTagLanes = 4;

/// Length of a set's tag run: @p ways rounded up to whole compares.
constexpr unsigned
padded_ways(unsigned ways)
{
    return (ways + kTagLanes - 1) & ~(kTagLanes - 1);
}

/// First index in [0, @p stride) whose tag equals @p tag, or @p none.
inline unsigned
find_tag_scalar(const std::uint32_t *tags, unsigned stride,
                std::uint32_t tag, unsigned none)
{
    for (unsigned w = 0; w < stride; ++w) {
        if (tags[w] == tag)
            return w;
    }
    return none;
}

/**
 * find_tag_scalar() four lanes at a time. @p stride must be a nonzero
 * multiple of kTagLanes and at most 32 (the match mask has one bit per
 * lane), and all @p stride tags must be readable.
 */
inline unsigned
find_tag(const std::uint32_t *tags, unsigned stride, std::uint32_t tag,
         unsigned none)
{
#if defined(__SSE2__)
    const __m128i needle = _mm_set1_epi32(static_cast<int>(tag));
    const auto lanes = [&](unsigned w) {
        const __m128i run =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(tags + w));
        return static_cast<std::uint32_t>(_mm_movemask_ps(
            _mm_castsi128_ps(_mm_cmpeq_epi32(run, needle))));
    };
    // Last group first, so each earlier one shifts the mask by a
    // constant; a set has at least one group, so the first is not tested.
    unsigned w = stride - kTagLanes;
    std::uint32_t match = lanes(w);
    while (w != 0) {
        w -= kTagLanes;
        match = match << kTagLanes | lanes(w);
    }
    return match != 0 ? static_cast<unsigned>(std::countr_zero(match))
                      : none;
#else
    return find_tag_scalar(tags, stride, tag, none);
#endif
}

}  // namespace ptm
