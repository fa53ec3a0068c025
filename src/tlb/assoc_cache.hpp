/**
 * @file
 * Generic set-associative key->value cache with true-LRU replacement.
 *
 * The TLBs, page-walk caches, and the nested TLB are all instances of this
 * template; they differ only in what the 64-bit key and the value mean.
 *
 * Storage is structure-of-arrays — flat tags/stamps/value arrays indexed
 * by set*padded_ways(ways)+way — so the hot lookup scans one contiguous
 * run of tags instead of striding over full entry structs. (An
 * interleaved set-major keys+stamps slab was measured here and lost ~10%
 * of end-to-end simulator throughput: these structures are small enough
 * to be host-cache resident either way, and interleaving doubles the
 * stride between consecutive sets' key runs.) A key is stored as its
 * 32-bit tag, key >> log2(sets): page, frame and prefix numbers sit far
 * below the 2^(32+log2 sets) a tag can name (a panic guards the bound),
 * so the narrowing is exact. Each set's run is padded to a multiple of
 * four ways with kInvalidTag, so lookup, probe, invalidate and insert's
 * existing-key check are all common/tag_scan.hpp's find_tag(), four ways
 * per SSE2 compare (DESIGN.md §9). Empty ways hold kInvalidTag and stamp
 * 0, below every resident way's stamp, so insert's victim — the first
 * empty way, else the LRU way — is the smallest stamp, lowest way on
 * ties, found by a branch-free scan.
 */
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/tag_scan.hpp"
#include "obs/stat_registry.hpp"

namespace ptm::tlb {

/// Hit/miss counters of an associative structure.
struct AssocStats {
    Counter hits;
    Counter misses;
    Counter evictions;
};

/**
 * Set-associative cache of Key(u64) -> Value with per-set LRU.
 *
 * @tparam Value copyable payload stored per entry.
 */
template <typename Value>
class AssocCache {
  public:
    /// Tag stored in empty ways and in each set's padding lanes; tag_of()
    /// panics on any key whose tag would reach it.
    static constexpr std::uint32_t kInvalidTag = ~0U;
    /// Most ways a set can have: find_tag()'s match mask has one bit per
    /// way.
    static constexpr unsigned kMaxWays = 32;

    /**
     * @param entries total entry count (must be ways * power-of-two sets)
     * @param ways    associativity, at most kMaxWays
     */
    AssocCache(unsigned entries, unsigned ways)
        : ways_(ways), stride_(padded_ways(ways))
    {
        if (ways == 0 || entries == 0 || entries % ways != 0)
            ptm_fatal("bad assoc-cache shape: %u entries, %u ways",
                      entries, ways);
        if (ways > kMaxWays)
            ptm_fatal("assoc-cache: %u ways exceed the %u a match mask holds",
                      ways, kMaxWays);
        num_sets_ = entries / ways;
        if ((num_sets_ & (num_sets_ - 1)) != 0)
            ptm_fatal("assoc-cache set count %u not a power of two",
                      num_sets_);
        set_shift_ = static_cast<unsigned>(std::countr_zero(num_sets_));
        const std::size_t n = static_cast<std::size_t>(num_sets_) * stride_;
        tags_.assign(n, kInvalidTag);
        stamps_.assign(n, 0);
        values_.resize(n);
    }

    /// Look up @p key, updating recency on hit.
    std::optional<Value>
    lookup(std::uint64_t key)
    {
        // Same-key repeat: the previous recency-changing operation (hit
        // or insert) was for this very key, so it is resident and MRU —
        // a guaranteed hit whose stamp bump would be an order-preserving
        // no-op. Misses change no recency state, so the memo survives
        // them. Consecutive ops dwell on one page for long runs, making
        // this the common L1-TLB path.
        if (key == memo_key_) {
            stats_.hits.inc();
            return memo_value_;
        }
        const std::size_t base = base_of(key);
        const unsigned w = find_tag(&tags_[base], stride_, tag_of(key),
                                    ways_);
        if (w < ways_) {
            stamps_[base + w] = ++clock_;
            stats_.hits.inc();
            memo_key_ = key;
            memo_value_ = values_[base + w];
            return memo_value_;
        }
        stats_.misses.inc();
        return std::nullopt;
    }

    /// Look up without updating recency or stats.
    std::optional<Value>
    probe(std::uint64_t key) const
    {
        const std::size_t base = base_of(key);
        const unsigned w = find_tag(&tags_[base], stride_, tag_of(key),
                                    ways_);
        if (w < ways_)
            return values_[base + w];
        return std::nullopt;
    }

    /// Insert (or refresh) key -> value, evicting LRU if the set is full.
    void
    insert(std::uint64_t key, const Value &value)
    {
        const std::size_t base = base_of(key);
        const std::uint32_t tag = tag_of(key);
        unsigned slot = find_tag(&tags_[base], stride_, tag, ways_);
        if (slot == ways_) {
            slot = oldest_way(base);
            // Stamp 0 marks an empty way; any other victim is resident.
            stats_.evictions.inc(stamps_[base + slot] != 0);
            tags_[base + slot] = tag;
        }
        values_[base + slot] = value;
        stamps_[base + slot] = ++clock_;
        // The inserted key is now resident and MRU; it also supersedes
        // any previously memoized key (which may just have been evicted).
        memo_key_ = key;
        memo_value_ = value;
    }

    /// Remove one key if present. Insert keeps keys unique within a set,
    /// so the first match is the only match.
    void
    invalidate(std::uint64_t key)
    {
        if (key == memo_key_)
            memo_key_ = kNoKey;
        const std::size_t base = base_of(key);
        const unsigned w = find_tag(&tags_[base], stride_, tag_of(key),
                                    ways_);
        if (w < ways_) {
            tags_[base + w] = kInvalidTag;
            stamps_[base + w] = 0;
        }
    }

    /// Remove everything (TLB shootdown / context switch without ASIDs).
    void
    invalidate_all()
    {
        memo_key_ = kNoKey;
        std::fill(tags_.begin(), tags_.end(), kInvalidTag);
        std::fill(stamps_.begin(), stamps_.end(), 0);
    }

    unsigned capacity() const { return num_sets_ * ways_; }
    const AssocStats &stats() const { return stats_; }
    void reset_stats() { stats_ = AssocStats{}; }

    /// Register hit/miss/eviction counters under "<prefix>.hits" etc.
    void
    register_stats(obs::StatRegistry &registry, const std::string &prefix,
                   obs::ResetScope scope = obs::ResetScope::Lifetime)
    {
        registry.counter(prefix + ".hits", &stats_.hits, scope);
        registry.counter(prefix + ".misses", &stats_.misses, scope);
        registry.counter(prefix + ".evictions", &stats_.evictions, scope);
    }

    /// Number of valid entries (test hook).
    unsigned
    occupancy() const
    {
        unsigned n = 0;
        for (std::uint32_t tag : tags_)
            n += static_cast<unsigned>(tag != kInvalidTag);
        return n;
    }

  private:
    /// Memo key meaning "no memoized entry". Real keys are page, frame
    /// and prefix numbers far below it: an all-ones key's tag would
    /// overflow the tag store.
    static constexpr std::uint64_t kNoKey = ~0ULL;

    std::size_t base_of(std::uint64_t key) const
    {
        return static_cast<std::size_t>(key & (num_sets_ - 1)) * stride_;
    }

    /// Narrow a key's tag to the stored 32 bits, guarding exactness.
    std::uint32_t
    tag_of(std::uint64_t key) const
    {
        const std::uint64_t tag = key >> set_shift_;
        if (tag >= kInvalidTag)
            ptm_panic("assoc-cache: key %llu overflows the 32-bit tag store",
                      static_cast<unsigned long long>(key));
        return static_cast<std::uint32_t>(tag);
    }

    /// Way of the set at @p base with the smallest stamp, lowest way on
    /// ties: its first empty way (stamp 0), else its LRU way.
    unsigned
    oldest_way(std::size_t base) const
    {
        unsigned victim = 0;
        std::uint64_t oldest = stamps_[base];
        for (unsigned w = 1; w < ways_; ++w) {
            const std::uint64_t stamp = stamps_[base + w];
            victim = stamp < oldest ? w : victim;
            oldest = stamp < oldest ? stamp : oldest;
        }
        return victim;
    }

    unsigned ways_;
    unsigned stride_;  ///< padded_ways(ways_): entries per set in the arrays
    unsigned num_sets_;
    unsigned set_shift_;
    std::uint64_t clock_ = 0;
    /// Tag of way w of set s at [s * stride_ + w]; kInvalidTag when empty
    /// and in the padding lanes w >= ways_.
    std::vector<std::uint32_t> tags_;
    /// Last-use stamp per way from clock_, 0 when empty.
    std::vector<std::uint64_t> stamps_;
    std::vector<Value> values_;
    /// Key of the most recent hit/insert (resident and MRU by
    /// construction); kNoKey when no such guarantee holds.
    std::uint64_t memo_key_ = kNoKey;
    Value memo_value_{};
    AssocStats stats_;
};

}  // namespace ptm::tlb
