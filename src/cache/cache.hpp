/**
 * @file
 * Tag-only set-associative cache model with true-LRU replacement.
 *
 * The simulator only needs hit/miss behaviour and eviction order, never
 * line contents. Tags live in one flat array indexed
 * set * padded_ways(ways) + way, so a lookup scans one short contiguous
 * run. Recency lives in a dense per-set array of 64-bit words: nibble r
 * of a set's word holds the way at recency rank r (rank 0 the LRU way,
 * rank ways-1 the MRU way), so the MRU way, the LRU victim and a move to
 * MRU are each a few shifts and masks — no stamps, no clock, no victim
 * scan.
 *
 * Tags are stored as 32 bits: a tag is line >> log2(sets) and modeled
 * physical memory is bounded far below the 2^(38+log2 sets) bytes a
 * 32-bit tag can name (a panic guards the bound), so narrowing is exact
 * — and it halves the bytes a scan touches (an 8-way set's tags are 32
 * contiguous bytes). Each set's run is padded to a multiple of four ways
 * with kInvalidTag, so the scan is common/tag_scan.hpp's find_tag(),
 * four ways per SSE2 compare with no scalar tail. The MRU way is probed
 * with one scalar compare first, which keeps the common hit off the
 * vector path (DESIGN.md §9). A per-set stamp-based LRU policy in
 * tests/cache_test.cpp is the independent reference model the cache is
 * compared against. Write-allocate, no dirty tracking (latency is
 * symmetric for the metrics the paper reports).
 */
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/access.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/tag_scan.hpp"
#include "common/types.hpp"
#include "obs/stat_registry.hpp"

namespace ptm::cache {

/// Static shape of one cache level.
struct CacheGeometry {
    std::string name = "cache";
    std::uint64_t size_bytes = 32 * 1024;
    unsigned ways = 8;

    std::uint64_t num_sets() const
    {
        return size_bytes / (static_cast<std::uint64_t>(ways) *
                             kCacheLineSize);
    }
};

/// Hit/miss counters, broken down by access kind.
struct CacheStats {
    Counter hits[kAccessKindCount];
    Counter misses[kAccessKindCount];

    std::uint64_t
    total_hits() const
    {
        std::uint64_t n = 0;
        for (const auto &c : hits)
            n += c.value();
        return n;
    }

    std::uint64_t
    total_misses() const
    {
        std::uint64_t n = 0;
        for (const auto &c : misses)
            n += c.value();
        return n;
    }
};

/**
 * One cache level. Lines are identified by line number (physical address
 * >> 6); set index is the low bits of the line number.
 */
class Cache {
  public:
    /// Tag stored in empty ways and in each set's padding lanes, which
    /// find_tag() scans too. Unreachable by real lines: tag_of()
    /// panics on any line whose tag would not fit below it, and every
    /// simulated physical space is orders of magnitude under that bound
    /// (2^38 bytes even for a single-set cache).
    static constexpr std::uint32_t kInvalidTag = ~0U;
    /// Most ways a set can have: its recency word ranks them in 4-bit
    /// nibbles of one u64.
    static constexpr unsigned kMaxWays = 16;

    explicit Cache(const CacheGeometry &geometry);

    /**
     * Look up @p line; on a miss the line is installed (evicting the
     * least recently used way).
     * @return true on hit.
     */
    bool
    access(std::uint64_t line, AccessKind kind)
    {
        // Same-line repeat: the previous access left this line resident
        // and MRU (hit or install), and nothing was installed or
        // flushed since — a guaranteed hit whose recency update would
        // be a no-op. Sequential workloads revisit a line for ~8
        // consecutive ops, so this skips most tag-scan work.
        if (line == memo_line_) {
            stats_.hits[static_cast<unsigned>(kind)].inc();
            return true;
        }
        const std::uint64_t set = line & (num_sets_ - 1);
        const std::uint32_t tag = tag_of(line);
        std::uint32_t *tags = set_tags(set);
        const std::uint64_t order = recency_[set];
        // MRU shortcut: a tag lives in at most one way of its set, so
        // probing the MRU way first cannot change the outcome — and
        // temporal locality makes it the common case. A hit there leaves
        // the recency order as it is.
        if (tags[order >> mru_shift_] == tag) {
            stats_.hits[static_cast<unsigned>(kind)].inc();
            memo_line_ = line;
            return true;
        }
        // Empty ways and padding lanes hold kInvalidTag, so the tag
        // compare alone decides: no separate valid-bit load on the scan.
        const unsigned w = find_tag(tags, stride_, tag, ways_);
        if (w < ways_) {
            recency_[set] = promote(order, w);
            stats_.hits[static_cast<unsigned>(kind)].inc();
            memo_line_ = line;
            return true;
        }
        stats_.misses[static_cast<unsigned>(kind)].inc();
        // The victim is the LRU way, rank 0; in a set that is not full
        // yet that is its lowest empty way (see flush()). Rotating it to
        // the top makes it MRU and drops every other way one rank.
        const unsigned victim = static_cast<unsigned>(order & 0xF);
        tags[victim] = tag;
        recency_[set] =
            (order >> 4) | (std::uint64_t{victim} << mru_shift_);
        // The install leaves the line resident and MRU, so a repeat
        // access may take the memo path (and correctly report a hit).
        memo_line_ = line;
        return false;
    }

    /// Look up without installing or updating recency (test/metric hook).
    bool probe(std::uint64_t line) const;

    /// Drop everything.
    void flush();

    const CacheGeometry &geometry() const { return geometry_; }
    const CacheStats &stats() const { return stats_; }
    void reset_stats() { stats_ = CacheStats{}; }

    /// Register per-kind hit/miss counters under
    /// "<prefix>.hits.<kind>" / "<prefix>.misses.<kind>".
    void register_stats(obs::StatRegistry &registry,
                        const std::string &prefix,
                        obs::ResetScope scope = obs::ResetScope::Lifetime);

    /// Number of valid lines currently resident (metric/test hook).
    std::uint64_t resident_lines() const;

  private:
    /// The set's stride_ tags: ways_ ways, then padding lanes.
    std::uint32_t *set_tags(std::uint64_t set)
    {
        return &tags_[static_cast<std::size_t>(set) * stride_];
    }
    const std::uint32_t *set_tags(std::uint64_t set) const
    {
        return &tags_[static_cast<std::size_t>(set) * stride_];
    }

    /// Narrow a line's tag to the stored 32 bits, guarding exactness.
    std::uint32_t tag_of(std::uint64_t line) const
    {
        const std::uint64_t tag = line >> set_shift_;
        if (tag >= kInvalidTag)
            ptm_panic("%s: line %llu overflows the 32-bit tag store",
                      geometry_.name.c_str(),
                      static_cast<unsigned long long>(line));
        return static_cast<std::uint32_t>(tag);
    }

    /// Recency word @p order with @p way moved to MRU; the ways ranked
    /// above it each drop one rank, those below keep theirs.
    std::uint64_t
    promote(std::uint64_t order, unsigned way) const
    {
        constexpr std::uint64_t kNibbleOnes = 0x1111111111111111ULL;
        // SWAR zero-nibble search: x is zero exactly in the nibble at
        // way's rank. A borrow only runs upward from a zero nibble, so
        // the lowest flagged nibble is that rank; unused top nibbles
        // (ways < 16) can only be flagged above it.
        const std::uint64_t x = order ^ (way * kNibbleOnes);
        const std::uint64_t zero = (x - kNibbleOnes) & ~x &
                                   (kNibbleOnes << 3);
        const unsigned rank_bits =
            static_cast<unsigned>(std::countr_zero(zero)) & ~3U;  // <= 60
        const std::uint64_t below = (std::uint64_t{1} << rank_bits) - 1;
        return (order & below) | ((order >> 4) & ~below) |
               (std::uint64_t{way} << mru_shift_);
    }

    CacheGeometry geometry_;
    std::uint64_t num_sets_;
    unsigned set_shift_;
    unsigned ways_;
    unsigned stride_;     ///< padded_ways(ways_): tags per set in tags_
    unsigned mru_shift_;  ///< 4 * (ways_ - 1): bit offset of the MRU rank
    /// Tag of way w of set s at [s * stride_ + w]; kInvalidTag when empty
    /// and in the padding lanes w >= ways_.
    std::vector<std::uint32_t> tags_;
    /// Recency word per set: nibble r holds the way at rank r, rank 0
    /// LRU. Nibbles at ranks >= ways_ stay zero, so order >> mru_shift_
    /// is the MRU way with no mask.
    std::vector<std::uint64_t> recency_;
    /// Line of the most recent access (resident and MRU by construction);
    /// ~0 when no such guarantee holds. Cleared by flush, which changes
    /// residency behind the memo's back.
    std::uint64_t memo_line_ = ~0ULL;
    CacheStats stats_;
};

}  // namespace ptm::cache
