#include "mmu/nested_walker.hpp"

#include "common/error.hpp"
#include "common/log.hpp"

namespace ptm::mmu {

namespace {
/// Retries bound: a translation can fault at most once per guest level
/// plus once per host walk; anything beyond signals a broken kernel model.
constexpr unsigned kMaxAttempts = 16;
}  // namespace

NestedWalker::NestedWalker(unsigned core, const tlb::TlbConfig &config,
                           cache::MemoryHierarchy *hierarchy,
                           HostContext host)
    : core_(core), hierarchy_(hierarchy), host_(std::move(host)),
      tlb_(config), pwc_(config), nested_tlb_(config)
{
    if (hierarchy_ == nullptr)
        ptm_fatal("walker needs a cache hierarchy");
    if (host_.page_table == nullptr || !host_.fault_handler)
        ptm_fatal("walker needs a complete host context");
}

std::uint64_t
NestedWalker::host_translate(std::uint64_t gfn, TranslationResult &result)
{
    if (std::optional<std::uint64_t> hfn = nested_tlb_.lookup(gfn)) {
        stats_.nested_tlb_hits.inc();
        return *hfn;
    }

    // 1D walk of the host page table. Every node access goes through the
    // cache hierarchy tagged HostPt; a non-present entry anywhere means
    // the host has not yet backed this guest frame and takes a host fault
    // (lazy allocation, §3.1), after which the walk restarts.
    stats_.host_walks.inc();
    for (unsigned attempt = 0; attempt < kMaxAttempts; ++attempt) {
        pt::WalkResult walk = host_.page_table->walk(gfn, host_steps_);
        for (unsigned i = 0; i < walk.steps; ++i) {
            const pt::WalkStep &step = host_steps_[i];
            cache::AccessResult access = hierarchy_->access(
                core_, step.entry_paddr, cache::AccessKind::HostPt);
            result.walk_cycles += access.latency;
            result.cycles += access.latency;
            stats_.walk_cycles.inc(access.latency);
            stats_.host_pt_cycles.inc(access.latency);
            stats_.host_pt_accesses.inc();
            if (access.served_by == cache::ServedBy::Memory) {
                stats_.host_pt_mem_accesses.inc();
                stats_.host_pt_level_mem.record(step.level);
            }
        }
        if (walk.complete) {
            std::uint64_t hfn = host_steps_[walk.steps - 1].pte.frame();
            nested_tlb_.insert(gfn, hfn);
            return hfn;
        }

        FaultOutcome fault = host_.fault_handler(gfn);
        stats_.host_faults.inc();
        if (!fault.ok)
            ptm_throw("host kernel cannot back guest frame %llu "
                      "(host OOM)", static_cast<unsigned long long>(gfn));
        stats_.fault_cycles.inc(fault.cycles);
        result.cycles += fault.cycles;
        result.faulted = true;
    }
    ptm_panic("host walk did not converge");
}

std::optional<std::uint64_t>
NestedWalker::walk_guest_once(GuestContext &guest, std::uint64_t gvpn,
                              TranslationResult &result)
{
    // Walk first, then account the steps in touch order: the walk is a
    // pure read, and the host faults host_translate may take below never
    // write the guest table, so the caches see the same touches as a
    // level-by-level descent.
    pt::WalkResult walk = guest.page_table->walk(gvpn, guest_steps_);
    unsigned first = 0;

    // The PWC can let the walker skip upper guest levels whose node it
    // already knows; it caches node frames, so validate the hit against
    // the current walk (a stale hit after unmap simply misses here).
    // Non-radix tables have no stable level->node contract, so the PWC
    // is bypassed for them (guest.use_pwc).
    if (guest.use_pwc) {
        if (std::optional<tlb::PageWalkCache::Hit> hit =
                pwc_.lookup(gvpn)) {
            if (hit->resume_level < walk.steps &&
                guest_steps_[hit->resume_level].node_frame ==
                    hit->node_frame) {
                first = hit->resume_level;
            }
        }
    }

    for (unsigned i = first; i < walk.steps; ++i) {
        const pt::WalkStep &step = guest_steps_[i];
        // The guest-PT node lives at a guest-physical frame; the walker
        // needs its host-physical address first (the "2D" part).
        std::uint64_t node_hfn = host_translate(step.node_frame, result);
        Addr entry_hpa =
            node_hfn * kPageSize + step.index * kPteSize;

        cache::AccessResult access = hierarchy_->access(
            core_, entry_hpa, cache::AccessKind::GuestPt);
        result.walk_cycles += access.latency;
        result.cycles += access.latency;
        stats_.walk_cycles.inc(access.latency);
        stats_.guest_pt_cycles.inc(access.latency);
        stats_.guest_pt_accesses.inc();
        if (access.served_by == cache::ServedBy::Memory) {
            stats_.guest_pt_mem_accesses.inc();
            stats_.guest_pt_level_mem.record(step.level);
        }

        if (!step.pte.present()) {
            // Guest page fault: the guest kernel allocates and maps.
            FaultOutcome fault = guest.fault_handler(gvpn);
            stats_.guest_faults.inc();
            if (!fault.ok)
                ptm_throw("guest kernel cannot satisfy page fault on "
                          "gvpn %llu (guest OOM)",
                          static_cast<unsigned long long>(gvpn));
            stats_.fault_cycles.inc(fault.cycles);
            result.cycles += fault.cycles;
            result.faulted = true;
            return std::nullopt;  // retry the walk against the new PT state
        }

        if (guest.use_pwc && i + 1 < walk.steps)
            pwc_.insert(gvpn, step.level, step.pte.frame());
    }

    if (!walk.complete) {
        // An incomplete walk ends on a non-present entry, which is
        // handled above; reaching here without completion cannot happen.
        ptm_panic("guest walk stopped early without fault");
    }
    return guest_steps_[walk.steps - 1].pte.frame();
}

TranslationResult
NestedWalker::translate(GuestContext &guest, Addr gva)
{
    if (guest.page_table == nullptr || !guest.fault_handler)
        ptm_fatal("translate() needs a complete guest context");

    TranslationResult result;
    stats_.translations.inc();

    std::uint64_t gvpn = page_number(gva);
    if (std::optional<std::uint64_t> hfn = tlb_.lookup_l1(gvpn)) {
        stats_.tlb_l1_hits.inc();
        result.hfn = *hfn;
        result.tlb_hit = true;
        return result;
    }
    if (std::optional<std::uint64_t> hfn = tlb_.lookup_l2_fill_l1(gvpn)) {
        stats_.tlb_l2_hits.inc();
        result.hfn = *hfn;
        result.tlb_hit = true;
        result.cycles = kStlbHitPenalty;
        return result;
    }

    // The full 2D walk: the guest walk (faulting and retrying until it
    // completes), then the final host walk of the data page itself.
    stats_.tlb_misses.inc();
    for (unsigned attempt = 0; attempt < kMaxAttempts; ++attempt) {
        std::optional<std::uint64_t> data_gfn =
            walk_guest_once(guest, gvpn, result);
        if (!data_gfn)
            continue;  // faulted; PT changed; retry

        result.gfn = *data_gfn;
        result.hfn = host_translate(*data_gfn, result);
        tlb_.insert(gvpn, result.hfn);
        stats_.walk_cycles_hist.record(result.walk_cycles);
        return result;
    }
    ptm_panic("guest translation did not converge");
}

void
NestedWalker::register_stats(obs::StatRegistry &registry,
                             const std::string &prefix)
{
    const std::string w = prefix + ".walker";
    const obs::ResetScope scope = obs::ResetScope::Measurement;
    registry.counter(w + ".translations", &stats_.translations, scope);
    registry.counter(w + ".tlb_l1_hits", &stats_.tlb_l1_hits, scope);
    registry.counter(w + ".tlb_l2_hits", &stats_.tlb_l2_hits, scope);
    registry.counter(w + ".tlb_misses", &stats_.tlb_misses, scope);
    registry.counter(w + ".walk_cycles", &stats_.walk_cycles, scope);
    registry.counter(w + ".guest_pt_cycles", &stats_.guest_pt_cycles,
                     scope);
    registry.counter(w + ".host_pt_cycles", &stats_.host_pt_cycles, scope);
    registry.counter(w + ".host_walks", &stats_.host_walks, scope);
    registry.counter(w + ".nested_tlb_hits", &stats_.nested_tlb_hits,
                     scope);
    registry.counter(w + ".guest_pt_accesses", &stats_.guest_pt_accesses,
                     scope);
    registry.counter(w + ".host_pt_accesses", &stats_.host_pt_accesses,
                     scope);
    registry.counter(w + ".guest_pt_mem_accesses",
                     &stats_.guest_pt_mem_accesses, scope);
    registry.counter(w + ".host_pt_mem_accesses",
                     &stats_.host_pt_mem_accesses, scope);
    registry.counter(w + ".guest_faults", &stats_.guest_faults, scope);
    registry.counter(w + ".host_faults", &stats_.host_faults, scope);
    registry.counter(w + ".fault_cycles", &stats_.fault_cycles, scope);
    registry.histogram(w + ".walk_cycles_hist", &stats_.walk_cycles_hist,
                       scope);
    registry.histogram(w + ".guest_pt_level_mem",
                       &stats_.guest_pt_level_mem, scope);
    registry.histogram(w + ".host_pt_level_mem",
                       &stats_.host_pt_level_mem, scope);

    tlb_.register_stats(registry, prefix);
    pwc_.register_stats(registry, prefix);
    nested_tlb_.register_stats(registry, prefix);
}

void
NestedWalker::invalidate(std::uint64_t gvpn)
{
    tlb_.invalidate(gvpn);
}

void
NestedWalker::invalidate_nested(std::uint64_t gfn)
{
    nested_tlb_.invalidate(gfn);
}

void
NestedWalker::flush_all()
{
    tlb_.flush();
    pwc_.flush();
    nested_tlb_.flush();
}

}  // namespace ptm::mmu
