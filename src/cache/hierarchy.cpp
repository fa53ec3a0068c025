#include "cache/hierarchy.hpp"

#include "common/log.hpp"

namespace ptm::cache {

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &config,
                                 unsigned num_cores)
    : config_(config), num_cores_(num_cores), llc_(config.llc)
{
    if (num_cores == 0)
        ptm_fatal("hierarchy needs at least one core");
    latency_by_[static_cast<unsigned>(ServedBy::L1)] = config_.l1_latency;
    latency_by_[static_cast<unsigned>(ServedBy::L2)] = config_.l2_latency;
    latency_by_[static_cast<unsigned>(ServedBy::Llc)] = config_.llc_latency;
    latency_by_[static_cast<unsigned>(ServedBy::Memory)] =
        config_.memory_latency;
    l1_.reserve(num_cores);
    l2_.reserve(num_cores);
    for (unsigned c = 0; c < num_cores; ++c) {
        l1_.emplace_back(config_.l1);
        l2_.emplace_back(config_.l2);
    }
}

bool
MemoryHierarchy::probe(unsigned core, Addr paddr) const
{
    std::uint64_t line = line_number(paddr);
    return l1_[core].probe(line) || l2_[core].probe(line) ||
           llc_.probe(line);
}

void
MemoryHierarchy::reset_stats()
{
    stats_ = HierarchyStats{};
    for (unsigned c = 0; c < num_cores_; ++c) {
        l1_[c].reset_stats();
        l2_[c].reset_stats();
    }
    llc_.reset_stats();
}

void
MemoryHierarchy::register_stats(obs::StatRegistry &registry,
                                const std::string &prefix)
{
    const obs::ResetScope scope = obs::ResetScope::Measurement;
    for (unsigned k = 0; k < kAccessKindCount; ++k) {
        const std::string kind =
            prefix + '.' + access_kind_name(static_cast<AccessKind>(k));
        for (unsigned s = 0; s < kServedByCount; ++s)
            registry.counter(
                kind + ".served." + served_by_name(static_cast<ServedBy>(s)),
                &stats_.served[k][s], scope);
        registry.counter(kind + ".accesses", &stats_.accesses[k], scope);
        registry.counter(kind + ".cycles", &stats_.cycles[k], scope);
    }
    for (unsigned c = 0; c < num_cores_; ++c) {
        l1_[c].register_stats(registry,
                              prefix + ".l1_" + std::to_string(c), scope);
        l2_[c].register_stats(registry,
                              prefix + ".l2_" + std::to_string(c), scope);
    }
    llc_.register_stats(registry, prefix + ".llc", scope);
}

void
MemoryHierarchy::flush_all()
{
    for (unsigned c = 0; c < num_cores_; ++c) {
        l1_[c].flush();
        l2_[c].flush();
    }
    llc_.flush();
}

}  // namespace ptm::cache
