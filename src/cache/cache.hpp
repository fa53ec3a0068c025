/**
 * @file
 * Tag-only set-associative cache model.
 *
 * The simulator only needs hit/miss behaviour and eviction order, never
 * line contents. The tag store is a single contiguous slab laid out
 * set-major: each set's tags are immediately followed by its replacement
 * state (LRU stamps or tree-PLRU direction bits), so one lookup touches
 * one short run of host cache lines — index arithmetic only, no per-set
 * objects, no pointers to chase. The MRU-hint way and occupancy count
 * live in dense per-set byte arrays that stay host-L1 resident.
 *
 * Tags are stored as 32 bits: a tag
 * is line >> log2(sets) and modeled physical memory is bounded far
 * below the 2^(38+log2 sets) bytes a 32-bit tag can name (a panic
 * guards the bound), so narrowing is exact — and it halves the bytes a
 * scan touches (an 8-way set's tags are 32 contiguous bytes). Every tag
 * scan is the scalar first-match loop find_way(): inside the inlined
 * access path it beat an SSE2 vector scan (DESIGN.md §9). Replacement
 * is dispatched with a single branch on ReplacementKind instead of a
 * virtual call (per-set virtual policy objects live on in
 * tests/cache_test.cpp as the reference model the cache is compared
 * against). Write-allocate, no dirty tracking (latency is symmetric for
 * the metrics the paper reports).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/access.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "obs/stat_registry.hpp"

namespace ptm::cache {

/// Supported replacement policies.
enum class ReplacementKind : std::uint8_t {
    Lru,      ///< true least-recently-used
    TreePlru, ///< tree pseudo-LRU (as in most real L1s)
    Random,   ///< uniform random victim
};

/// Static shape of one cache level.
struct CacheGeometry {
    std::string name = "cache";
    std::uint64_t size_bytes = 32 * 1024;
    unsigned ways = 8;
    ReplacementKind replacement = ReplacementKind::Lru;

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

    /// @param rng required only for random replacement; may be null.
    Cache(const CacheGeometry &geometry, Rng *rng = nullptr);

    /**
     * Look up @p line; on a miss the line is installed (evicting the
     * policy's victim).
     * @return true on hit.
     */
    bool
    access(std::uint64_t line, AccessKind kind)
    {
        // Same-line repeat: the previous access left this line resident
        // and MRU (hit or install), and nothing was installed or
        // invalidated since — a guaranteed hit whose recency touch would
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

    /// Install @p line without counting it as an access (fill from below).
    void fill(std::uint64_t line);

    /// Drop a line if present (models invalidation).
    void invalidate(std::uint64_t line);

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
    /// Replacement state of @p set (stamps or PLRU bits), right after
    /// its tags.
    std::uint64_t *set_repl(std::uint64_t set)
    {
        return set_base(set) + tag_words_;
    }
    const std::uint64_t *set_repl(std::uint64_t set) const
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
    unsigned live_of(std::uint64_t set) const { return live_[set]; }

    /// First way of @p tags equal to @p tag, or ways_ when none is. Real
    /// tags occur at most once per set; kInvalidTag may fill several
    /// ways, and the first empty way is the one install() must pick.
    unsigned
    find_way(const std::uint32_t *tags, std::uint32_t tag) const
    {
        for (unsigned w = 0; w < ways_; ++w) {
            if (tags[w] == tag)
                return w;
        }
        return ways_;
    }

    /// Set every way of every set to kInvalidTag and clear replacement
    /// state (construction / flush).
    void reset_tags();

    /// Record a use of @p way — single branch on the replacement kind.
    void
    touch(std::uint64_t set, unsigned way)
    {
        switch (geometry_.replacement) {
          case ReplacementKind::Lru:
            set_repl(set)[way] = ++clock_;
            return;
          case ReplacementKind::TreePlru: {
            // Walk from root to the leaf for `way`, pointing each node
            // away from the path taken (nodes 1..leaves-1 used).
            std::uint64_t *bits = set_repl(set);
            unsigned node = 1;
            unsigned span = plru_leaves_;
            while (span > 1) {
                span >>= 1;
                bool right = way >= span;
                bits[node] = right ? 0 : 1;
                node = node * 2 + (right ? 1 : 0);
                if (right)
                    way -= span;
            }
            return;
          }
          case ReplacementKind::Random:
            return;
        }
    }

    /// Pick the way to evict from a full set.
    unsigned
    victim(std::uint64_t set)
    {
        switch (geometry_.replacement) {
          case ReplacementKind::Lru: {
            // True LRU: smallest stamp wins, lowest way on ties.
            const std::uint64_t *stamps = set_repl(set);
            unsigned oldest = 0;
            for (unsigned w = 1; w < ways_; ++w)
                oldest = stamps[w] < stamps[oldest] ? w : oldest;
            return oldest;
          }
          case ReplacementKind::TreePlru: {
            // Follow the pointers; clamp to a valid way for
            // non-power-of-two configurations.
            const std::uint64_t *bits = set_repl(set);
            unsigned node = 1;
            unsigned way = 0;
            unsigned span = plru_leaves_;
            while (span > 1) {
                span >>= 1;
                bool right = bits[node] != 0;
                node = node * 2 + (right ? 1 : 0);
                if (right)
                    way += span;
            }
            return way >= ways_ ? ways_ - 1 : way;
          }
          case ReplacementKind::Random:
            return static_cast<unsigned>(rng_->below(ways_));
        }
        ptm_panic("unreachable replacement kind");
    }

    void
    install(std::uint64_t set, std::uint32_t tag)
    {
        // Prefer the first empty way; otherwise evict the policy's
        // victim. Sets fill once and stay full, so the occupancy count
        // skips the empty-way scan in steady state.
        unsigned w;
        if (live_[set] < ways_) {
            w = find_way(set_tags(set), kInvalidTag);
            ++live_[set];
        } else {
            w = victim(set);
        }
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
    /// u64 words of replacement state per set: ways (LRU stamps),
    /// plru_leaves_ (tree bits), or 0 (random).
    unsigned repl_words_;
    unsigned set_stride_;  ///< tag_words_ + repl_words_
    unsigned plru_leaves_ = 0;  ///< ways rounded up to a power of two
    std::uint64_t clock_ = 0;
    Rng *rng_;
    std::vector<std::uint64_t> slab_;
    /// Last-hit way per set (MRU shortcut) and occupied-way count per
    /// set. Deliberately dense side arrays rather than words inside the
    /// slab: at one byte / two bytes per set they stay resident in the
    /// host's L1 across the whole simulation, while a per-set metadata
    /// word would sit on a cold slab line of its own. Both are pure
    /// lookup accelerators — they never affect replacement decisions or
    /// metrics.
    std::vector<std::uint8_t> hint_;
    std::vector<std::uint16_t> live_;
    /// Line of the most recent access (resident and MRU by construction);
    /// ~0 when no such guarantee holds. Cleared by fill/invalidate/flush
    /// because they can change residency behind the memo's back.
    std::uint64_t memo_line_ = ~0ULL;
    CacheStats stats_;
};

}  // namespace ptm::cache
