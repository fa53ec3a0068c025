/**
 * @file
 * Generic set-associative key->value cache with true-LRU replacement.
 *
 * The TLBs, page-walk caches, and the nested TLB are all instances of this
 * template; they differ only in what the 64-bit key and the value mean.
 *
 * Storage is structure-of-arrays — flat keys/stamps/value arrays indexed
 * by set*ways+way — so the hot lookup scans one contiguous run of keys
 * instead of striding over full entry structs. (An interleaved set-major
 * keys+stamps slab was measured here and lost ~10% of end-to-end
 * simulator throughput: these structures are small enough to be
 * host-cache resident either way, and interleaving doubles the stride
 * between consecutive sets' key runs.) Lookup, probe and invalidate
 * share one scalar first-match loop, find_way() (a vector key scan did
 * not pay; DESIGN.md §9), while insert keeps the single pass that
 * resolves existing-key / free-way / LRU-victim together (inserts run
 * several times per TLB miss). Empty ways hold kInvalidKey, so the scan
 * is a bare key compare with no separate valid-bit load; keys must
 * therefore never be all-ones (page and frame numbers are far below
 * 2^64).
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/log.hpp"
#include "common/stats.hpp"
#include "obs/stat_registry.hpp"

namespace ptm::tlb {

/// Hit/miss counters of an associative structure.
struct AssocStats {
    Counter hits;
    Counter misses;
    Counter evictions;

    double
    hit_rate() const
    {
        std::uint64_t total = hits.value() + misses.value();
        return total ? static_cast<double>(hits.value()) /
                       static_cast<double>(total)
                     : 0.0;
    }
};

/**
 * Set-associative cache of Key(u64) -> Value with per-set LRU.
 *
 * @tparam Value copyable payload stored per entry.
 */
template <typename Value>
class AssocCache {
  public:
    /// Key stored in empty ways; real keys must never equal it.
    static constexpr std::uint64_t kInvalidKey = ~0ULL;

    /**
     * @param entries total entry count (must be ways * power-of-two sets)
     * @param ways    associativity
     */
    AssocCache(unsigned entries, unsigned ways) : ways_(ways)
    {
        if (ways == 0 || entries == 0 || entries % ways != 0)
            ptm_fatal("bad assoc-cache shape: %u entries, %u ways",
                      entries, ways);
        num_sets_ = entries / ways;
        if ((num_sets_ & (num_sets_ - 1)) != 0)
            ptm_fatal("assoc-cache set count %u not a power of two",
                      num_sets_);
        const std::size_t n = static_cast<std::size_t>(num_sets_) * ways_;
        keys_.assign(n, kInvalidKey);
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
        const unsigned w = find_way(base, key);
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
        const unsigned w = find_way(base, key);
        if (w < ways_)
            return values_[base + w];
        return std::nullopt;
    }

    /// Insert (or refresh) key -> value, evicting LRU if the set is full.
    void
    insert(std::uint64_t key, const Value &value)
    {
        const std::size_t base = base_of(key);
        // One pass resolves all three candidates, cheapest first: an
        // existing entry for the key, the first empty way, and the LRU
        // way (smallest stamp, lowest way on ties). Inserts run several
        // times per TLB miss (L1+L2 TLB, PWC levels, nested TLB), so the
        // single pass beats three separate probes here.
        unsigned slot = ways_;
        unsigned first_invalid = ways_;
        unsigned lru = 0;
        for (unsigned w = 0; w < ways_; ++w) {
            if (keys_[base + w] != kInvalidKey) {
                if (keys_[base + w] == key) {
                    slot = w;
                    break;
                }
            } else if (first_invalid == ways_) {
                first_invalid = w;
            }
            if (stamps_[base + w] < stamps_[base + lru])
                lru = w;
        }
        if (slot == ways_) {
            if (first_invalid != ways_) {
                slot = first_invalid;
            } else {
                slot = lru;
                stats_.evictions.inc();
            }
        }
        keys_[base + slot] = key;
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
            memo_key_ = kInvalidKey;
        const std::size_t base = base_of(key);
        const unsigned w = find_way(base, key);
        if (w < ways_)
            keys_[base + w] = kInvalidKey;
    }

    /// Remove everything (TLB shootdown / context switch without ASIDs).
    /// Stamps are left in place: stale stamps are never consulted before
    /// an insert restamps the way (empty ways win over the LRU probe).
    void
    invalidate_all()
    {
        memo_key_ = kInvalidKey;
        std::fill(keys_.begin(), keys_.end(), kInvalidKey);
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
        for (std::uint64_t k : keys_)
            n += static_cast<unsigned>(k != kInvalidKey);
        return n;
    }

  private:
    std::size_t base_of(std::uint64_t key) const
    {
        return static_cast<std::size_t>(key & (num_sets_ - 1)) * ways_;
    }

    /// Way of the set starting at @p base that holds @p key, or ways_.
    unsigned
    find_way(std::size_t base, std::uint64_t key) const
    {
        for (unsigned w = 0; w < ways_; ++w) {
            if (keys_[base + w] == key)
                return w;
        }
        return ways_;
    }

    unsigned ways_;
    unsigned num_sets_;
    std::uint64_t clock_ = 0;
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> stamps_;
    std::vector<Value> values_;
    /// Key of the most recent hit/insert (resident and MRU by
    /// construction); kInvalidKey when no such guarantee holds.
    std::uint64_t memo_key_ = kInvalidKey;
    Value memo_value_{};
    AssocStats stats_;
};

}  // namespace ptm::tlb
