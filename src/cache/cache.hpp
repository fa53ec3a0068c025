/**
 * @file
 * Tag-only set-associative cache model with true-LRU replacement.
 *
 * The simulator only needs hit/miss behaviour and eviction order, never
 * line contents. The tag store is a single contiguous slab laid out
 * set-major: each set's tags are immediately followed by its LRU stamps,
 * so one lookup touches one short run of host cache lines — index
 * arithmetic only, no per-set objects, no pointers to chase. The
 * MRU-hint way lives in a dense per-set byte array that stays host-L1
 * resident.
 *
 * Tags are stored as 32 bits: a tag
 * is line >> log2(sets) and modeled physical memory is bounded far
 * below the 2^(38+log2 sets) bytes a 32-bit tag can name (a panic
 * guards the bound), so narrowing is exact — and it halves the bytes a
 * scan touches (an 8-way set's tags are 32 contiguous bytes). Every tag
 * scan is the scalar first-match loop find_way(): inside the inlined
 * access path it beat an SSE2 vector scan (DESIGN.md §9). A per-set
 * LRU policy object in tests/cache_test.cpp is the reference model the
 * cache is compared against. Write-allocate, no dirty tracking (latency
 * is symmetric for the metrics the paper reports).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/access.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
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
    /// Tag stored in empty ways. Unreachable by real lines: tag_of()
    /// panics on any line whose tag would not fit below it, and every
    /// simulated physical space is orders of magnitude under that bound
    /// (2^38 bytes even for a single-set cache).
    static constexpr std::uint32_t kInvalidTag = ~0U;

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
        // flushed since — a guaranteed hit whose recency touch would
        // be an order-preserving no-op (it is already the newest entry
        // of its set). Sequential workloads revisit a line for ~8
        // consecutive ops, so this skips most tag-scan work.
        if (line == memo_line_) {
            stats_.hits[static_cast<unsigned>(kind)].inc();
            return true;
        }
        const std::uint64_t set = line & (num_sets_ - 1);
        const std::uint32_t tag = tag_of(line);
        std::uint32_t *tags = set_tags(set);
        // MRU shortcut: a tag lives in at most one way of its set, so
        // probing the last-hit way first cannot change the outcome —
        // and temporal locality makes it the common case.
        const unsigned hint = hint_of(set);
        if (tags[hint] == tag) {
            touch(set, hint);
            stats_.hits[static_cast<unsigned>(kind)].inc();
            memo_line_ = line;
            return true;
        }
        // Empty ways hold kInvalidTag, so the tag compare alone decides:
        // no separate valid-bit load on the hot scan.
        const unsigned w = find_way(tags, tag);
        if (w < ways_) {
            set_hint(set, w);
            touch(set, w);
            stats_.hits[static_cast<unsigned>(kind)].inc();
            memo_line_ = line;
            return true;
        }
        stats_.misses[static_cast<unsigned>(kind)].inc();
        install(set, tag);
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
    /// Start of the set's slab run (u64 words).
    std::uint64_t *set_base(std::uint64_t set)
    {
        return &slab_[static_cast<std::size_t>(set) * set_stride_];
    }
    const std::uint64_t *set_base(std::uint64_t set) const
    {
        return &slab_[static_cast<std::size_t>(set) * set_stride_];
    }
    /// The set's ways_ 32-bit tags, packed at the head of its run
    /// (tag_words_ u64 words viewed as u32 lanes).
    std::uint32_t *set_tags(std::uint64_t set)
    {
        return reinterpret_cast<std::uint32_t *>(set_base(set));
    }
    const std::uint32_t *set_tags(std::uint64_t set) const
    {
        return reinterpret_cast<const std::uint32_t *>(set_base(set));
    }
    /// LRU stamps of @p set, right after its tags.
    std::uint64_t *set_stamps(std::uint64_t set)
    {
        return set_base(set) + tag_words_;
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
    unsigned hint_of(std::uint64_t set) const { return hint_[set]; }
    void set_hint(std::uint64_t set, unsigned way)
    {
        hint_[set] = static_cast<std::uint8_t>(way);
    }

    /// First way of @p tags equal to @p tag, or ways_ when none is. Real
    /// tags occur at most once per set.
    unsigned
    find_way(const std::uint32_t *tags, std::uint32_t tag) const
    {
        for (unsigned w = 0; w < ways_; ++w) {
            if (tags[w] == tag)
                return w;
        }
        return ways_;
    }

    /// Set every way of every set to kInvalidTag and every stamp to 0
    /// (construction / flush).
    void reset_tags();

    /// Record a use of @p way: stamps start at 1, so an empty way's 0
    /// stays the smallest stamp of its set.
    void
    touch(std::uint64_t set, unsigned way)
    {
        set_stamps(set)[way] = ++clock_;
    }

    void
    install(std::uint64_t set, std::uint32_t tag)
    {
        // True LRU: smallest stamp wins, lowest way on ties. Empty ways
        // keep stamp 0 until filled, so a set that is not full yet
        // fills its first empty way.
        const std::uint64_t *stamps = set_stamps(set);
        unsigned w = 0;
        for (unsigned i = 1; i < ways_; ++i)
            w = stamps[i] < stamps[w] ? i : w;
        set_tags(set)[w] = tag;
        hint_[set] = static_cast<std::uint8_t>(w);
        touch(set, w);
    }

    CacheGeometry geometry_;
    std::uint64_t num_sets_;
    unsigned set_shift_;
    unsigned ways_;
    /// u64 words holding the set's ways_ packed u32 tags: ceil(ways/2).
    unsigned tag_words_;
    unsigned set_stride_;  ///< tag_words_ + ways_ (one stamp per way)
    std::uint64_t clock_ = 0;
    std::vector<std::uint64_t> slab_;
    /// Last-hit way per set (MRU shortcut). Deliberately a dense side
    /// array rather than a word inside the slab: at one byte per set it
    /// stays resident in the host's L1 across the whole simulation,
    /// while a per-set metadata word would sit on a cold slab line of
    /// its own. A pure lookup accelerator — it never affects
    /// replacement decisions or metrics.
    std::vector<std::uint8_t> hint_;
    /// Line of the most recent access (resident and MRU by construction);
    /// ~0 when no such guarantee holds. Cleared by flush, which changes
    /// residency behind the memo's back.
    std::uint64_t memo_line_ = ~0ULL;
    CacheStats stats_;
};

}  // namespace ptm::cache
