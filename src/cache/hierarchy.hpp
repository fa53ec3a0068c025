/**
 * @file
 * Multi-core cache hierarchy with latency accounting.
 *
 * Models the platform of the paper's Table 2 at reduced scale: per-core
 * private L1D and L2, one shared LLC, flat main-memory latency. Every
 * access is tagged with an AccessKind so the hierarchy can answer the
 * paper's central question — from where are guest-PT vs host-PT accesses
 * served (§3.3, Tables 1 and 4).
 *
 * Caches are stored by value (no unique_ptr indirection) and the access
 * cascade is inline: the whole per-access path from System::step down to
 * the tag scan resolves without a virtual call or heap hop.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "cache/access.hpp"
#include "cache/cache.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace ptm::cache {

/// Shape and timing of the whole hierarchy.
struct HierarchyConfig {
    CacheGeometry l1 = {"L1D", 16 * 1024, 8};
    CacheGeometry l2 = {"L2", 64 * 1024, 8};
    CacheGeometry llc = {"LLC", 256 * 1024, 16};

    Cycles l1_latency = 4;
    Cycles l2_latency = 14;
    Cycles llc_latency = 44;
    Cycles memory_latency = 220;
};

/// Outcome of one hierarchy access.
struct AccessResult {
    ServedBy served_by = ServedBy::L1;
    Cycles latency = 0;
};

/// Counters of where accesses of each kind were served from.
struct HierarchyStats {
    Counter served[kAccessKindCount][kServedByCount];
    Counter accesses[kAccessKindCount];
    Counter cycles[kAccessKindCount];

    std::uint64_t
    served_by_memory(AccessKind kind) const
    {
        return served[static_cast<unsigned>(kind)]
                     [static_cast<unsigned>(ServedBy::Memory)].value();
    }
};

/**
 * The hierarchy: private L1/L2 per core, shared LLC. Inclusive fills — a
 * line served by memory is installed at every level on the access path.
 */
class MemoryHierarchy {
  public:
    MemoryHierarchy(const HierarchyConfig &config, unsigned num_cores);

    /**
     * Access physical address @p paddr from @p core.
     * @return the serving level and its latency.
     */
    AccessResult
    access(unsigned core, Addr paddr, AccessKind kind)
    {
        if (core >= num_cores_)
            ptm_panic("access from core %u of %u", core, num_cores_);

        std::uint64_t line = line_number(paddr);
        ServedBy served;

        // Each level's miss installs the line during its own lookup
        // (write-allocate in Cache::access), so the cascade itself
        // performs the inclusive fill of every level on the path — no
        // separate fill pass is needed.
        if (l1_[core].access(line, kind)) {
            served = ServedBy::L1;
        } else if (l2_[core].access(line, kind)) {
            served = ServedBy::L2;
        } else if (llc_.access(line, kind)) {
            served = ServedBy::Llc;
        } else {
            served = ServedBy::Memory;
        }

        Cycles latency = latency_by_[static_cast<unsigned>(served)];
        unsigned k = static_cast<unsigned>(kind);
        stats_.served[k][static_cast<unsigned>(served)].inc();
        stats_.accesses[k].inc();
        stats_.cycles[k].inc(latency);
        return {served, latency};
    }

    /// Latency that an access served by @p level costs.
    Cycles
    latency_of(ServedBy level) const
    {
        switch (level) {
          case ServedBy::L1: return config_.l1_latency;
          case ServedBy::L2: return config_.l2_latency;
          case ServedBy::Llc: return config_.llc_latency;
          case ServedBy::Memory: return config_.memory_latency;
        }
        ptm_panic("unreachable serving level");
    }

    /// True if @p paddr currently hits anywhere in @p core's path.
    bool probe(unsigned core, Addr paddr) const;

    unsigned num_cores() const { return num_cores_; }
    const HierarchyConfig &config() const { return config_; }

    const HierarchyStats &stats() const { return stats_; }
    void reset_stats();

    /// Register the served-by matrix plus every cache's per-kind counters:
    /// "<prefix>.<kind>.served.<level>", "<prefix>.<kind>.accesses",
    /// "<prefix>.<kind>.cycles", "<prefix>.l1_<core>.*", ".l2_<core>.*",
    /// ".llc.*". All Measurement-scoped: the hierarchy is reset between
    /// the init and measure phases of a scenario.
    void register_stats(obs::StatRegistry &registry,
                        const std::string &prefix);

    const Cache &l1(unsigned core) const { return l1_[core]; }
    const Cache &l2(unsigned core) const { return l2_[core]; }
    const Cache &llc() const { return llc_; }

    /// Drop all cached lines everywhere (e.g. between experiment phases).
    void flush_all();

  private:
    HierarchyConfig config_;
    unsigned num_cores_;
    /// latency_of() as a flat table, indexed by ServedBy — the hot
    /// access path reads this instead of branching on the level.
    Cycles latency_by_[kServedByCount] = {};
    std::vector<Cache> l1_;
    std::vector<Cache> l2_;
    Cache llc_;
    HierarchyStats stats_;
};

}  // namespace ptm::cache
