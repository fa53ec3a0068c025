/**
 * @file
 * Address-translation caching structures of one simulated core:
 * two-level TLB, page-walk caches, and the nested (gpa->hpa) TLB.
 *
 * Under virtualization the data TLB caches the *combined* translation
 * guest-virtual page -> host-physical frame; the page-walk caches hold
 * intermediate guest-PT nodes (letting the 2D walker skip upper levels);
 * and the nested TLB caches guest-physical -> host-physical translations
 * so that most gPT-node references avoid a full host walk (§2.5).
 */
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.hpp"
#include "tlb/assoc_cache.hpp"

namespace ptm::tlb {

/// Shape of one core's translation machinery (Broadwell-like defaults).
struct TlbConfig {
    unsigned l1_entries = 32;
    unsigned l1_ways = 4;
    unsigned l2_entries = 256;
    unsigned l2_ways = 8;
    /// Per-level page-walk cache (for guest PML4E/PDPTE/PDE entries).
    unsigned pwc_entries = 16;
    unsigned pwc_ways = 4;
    /// Nested TLB: guest-physical -> host-physical, for walk accesses.
    unsigned nested_entries = 32;
    unsigned nested_ways = 4;
    bool pwc_enabled = true;
    bool nested_tlb_enabled = true;
};

/// Which structure produced a translation hit.
enum class TlbLevel : std::uint8_t { L1, L2, Miss };

/**
 * Two-level data TLB: guest-virtual page number -> host frame number.
 */
class TlbHierarchy {
  public:
    explicit TlbHierarchy(const TlbConfig &config);

    /// Translate @p gvpn; fills L1 from L2 on an L2 hit.
    struct Result {
        TlbLevel level = TlbLevel::Miss;
        std::uint64_t hfn = 0;
    };
    Result
    lookup(std::uint64_t gvpn)
    {
        if (std::optional<std::uint64_t> hfn = lookup_l1(gvpn))
            return {TlbLevel::L1, *hfn};
        if (std::optional<std::uint64_t> hfn = lookup_l2_fill_l1(gvpn))
            return {TlbLevel::L2, *hfn};
        return {TlbLevel::Miss, 0};
    }

    /// L1-only probe: the first leg of lookup(), split out so the walker
    /// can tell L1 from L2 hits without a Result (counters behave
    /// exactly as in lookup()).
    std::optional<std::uint64_t>
    lookup_l1(std::uint64_t gvpn)
    {
        return l1_.lookup(gvpn);
    }

    /// Continue a lookup whose L1 probe missed: probe L2 and fill L1 on a
    /// hit, exactly like the second leg of lookup().
    std::optional<std::uint64_t>
    lookup_l2_fill_l1(std::uint64_t gvpn)
    {
        if (std::optional<std::uint64_t> hfn = l2_.lookup(gvpn)) {
            l1_.insert(gvpn, *hfn);
            return hfn;
        }
        return std::nullopt;
    }

    /// Install a completed translation into both levels.
    void
    insert(std::uint64_t gvpn, std::uint64_t hfn)
    {
        l1_.insert(gvpn, hfn);
        l2_.insert(gvpn, hfn);
    }

    /// Remove a single translation (munmap / COW break).
    void
    invalidate(std::uint64_t gvpn)
    {
        l1_.invalidate(gvpn);
        l2_.invalidate(gvpn);
    }

    /// Full flush (context switch; the sim does not model ASIDs).
    void flush();

    const AssocStats &l1_stats() const { return l1_.stats(); }
    const AssocStats &l2_stats() const { return l2_.stats(); }
    void reset_stats();

    /// Register both levels under "<prefix>.l1tlb.*" / "<prefix>.l2tlb.*".
    void register_stats(obs::StatRegistry &registry,
                        const std::string &prefix);

  private:
    AssocCache<std::uint64_t> l1_;
    AssocCache<std::uint64_t> l2_;
};

/**
 * Page-walk caches for the guest page table: one associative structure per
 * non-leaf level, keyed by the guest-virtual page-number prefix that
 * selects the next-level node. A hit at depth d lets the walker resume at
 * level d+1 directly.
 */
class PageWalkCache {
  public:
    explicit PageWalkCache(const TlbConfig &config);

    /**
     * Deepest cached level for @p gvpn.
     * @return pair(level_to_resume_at, node_frame) where level 1..3 means
     *         the walk may start at that level inside the returned node;
     *         nullopt means start from the root.
     */
    struct Hit {
        unsigned resume_level = 0;
        std::uint64_t node_frame = 0;
    };
    std::optional<Hit>
    lookup(std::uint64_t gvpn)
    {
        if (!enabled_)
            return std::nullopt;
        // Deepest level first: a PDE hit skips the most walk steps.
        for (unsigned level = kPtLevels - 2;; --level) {
            if (std::optional<std::uint64_t> frame =
                    levels_[level].lookup(key_for(gvpn, level))) {
                return Hit{level + 1, *frame};
            }
            if (level == 0)
                break;
        }
        return std::nullopt;
    }

    /// Record that the entry at @p level (0..2) for @p gvpn points at node
    /// frame @p child_frame.
    void
    insert(std::uint64_t gvpn, unsigned level, std::uint64_t child_frame)
    {
        if (!enabled_)
            return;
        levels_[level].insert(key_for(gvpn, level), child_frame);
    }

    void flush();
    bool enabled() const { return enabled_; }

    const AssocStats &stats(unsigned level) const
    {
        return levels_[level].stats();
    }

    /// Register each level under "<prefix>.pwc_l<level>.*".
    void register_stats(obs::StatRegistry &registry,
                        const std::string &prefix);

  private:
    static std::uint64_t key_for(std::uint64_t gvpn, unsigned level)
    {
        // The prefix that selects the level-`level` entry itself: drop the
        // radix digits consumed by deeper levels.
        return gvpn >> (9 * (kPtLevels - 1 - level));
    }

    bool enabled_;
    // levels_[0] caches PML4 entries, [1] PDPT entries, [2] PD entries.
    AssocCache<std::uint64_t> levels_[kPtLevels - 1];

    friend class PageWalkCacheTestPeer;
};

/**
 * Nested TLB: guest-frame -> host-frame translations used when the 2D
 * walker needs the host-physical address of a guest-PT node or data page.
 */
class NestedTlb {
  public:
    explicit NestedTlb(const TlbConfig &config);

    std::optional<std::uint64_t>
    lookup(std::uint64_t gfn)
    {
        if (!enabled_)
            return std::nullopt;
        return cache_.lookup(gfn);
    }

    void
    insert(std::uint64_t gfn, std::uint64_t hfn)
    {
        if (!enabled_)
            return;
        cache_.insert(gfn, hfn);
    }

    void invalidate(std::uint64_t gfn);
    void flush();
    bool enabled() const { return enabled_; }

    const AssocStats &stats() const { return cache_.stats(); }

    /// Register under "<prefix>.nested_tlb.*".
    void register_stats(obs::StatRegistry &registry,
                        const std::string &prefix);

  private:
    bool enabled_;
    AssocCache<std::uint64_t> cache_;
};

}  // namespace ptm::tlb
