#include "vm/guest_kernel.hpp"

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/trace_sink.hpp"
#include "pt/table_factory.hpp"
#include "vm/buddy_provider.hpp"

namespace ptm::vm {

GuestKernel::GuestKernel(std::uint64_t guest_frames, GuestCostModel costs)
    : costs_(costs), buddy_(0, guest_frames), memory_(0, guest_frames),
      provider_(std::make_unique<BuddyPageProvider>(this))
{
}

GuestKernel::~GuestKernel()
{
    // Destroy processes (and their page tables, which release node frames
    // through the frame source) before the allocator they point into.
    processes_.clear();
}

void
GuestKernel::set_provider(std::unique_ptr<PhysicalPageProvider> provider)
{
    if (!provider)
        ptm_fatal("null page provider");
    provider_ = std::move(provider);
}

void
GuestKernel::set_translation_table(const std::string &name)
{
    if (!processes_.empty())
        ptm_fatal("cannot change the translation table with live "
                  "processes");
    pt::require_table(name);
    table_name_ = name;
}

pt::FrameSource
GuestKernel::pt_frame_source(std::int32_t pid)
{
    return pt::FrameSource{
        .allocate =
            [this, pid]() -> std::optional<std::uint64_t> {
                std::optional<std::uint64_t> frame = buddy_.allocate_frame();
                if (frame) {
                    memory_.set_use(*frame, 1, mem::FrameUse::PageTable,
                                    pid);
                }
                return frame;
            },
        .release =
            [this](std::uint64_t frame) {
                memory_.set_use(frame, 1, mem::FrameUse::Free);
                buddy_.free(frame);
            },
    };
}

Process &
GuestKernel::create_process(const std::string &name)
{
    std::int32_t pid = next_pid_++;
    auto proc = std::make_unique<Process>(
        pid, name,
        pt::make_table(table_name_, pt_frame_source(pid)));
    Process &ref = *proc;
    processes_.emplace(pid, std::move(proc));
    return ref;
}

Process &
GuestKernel::process(std::int32_t pid)
{
    auto it = processes_.find(pid);
    if (it == processes_.end())
        ptm_panic("no process with pid %d", pid);
    return *it->second;
}

void
GuestKernel::invalidate_translation(Process &proc, std::uint64_t gvpn)
{
    if (on_translation_invalidated)
        on_translation_invalidated(proc.pid(), gvpn);
}

mmu::FaultOutcome
GuestKernel::handle_fault(Process &proc, std::uint64_t gvpn)
{
    if (!proc.vas().is_mapped(gvpn)) {
        ptm_panic("pid %d faulted on unmapped page 0x%llx (segfault)",
                  proc.pid(), static_cast<unsigned long long>(gvpn));
    }

    // Spurious fault: another thread (or an earlier retry) already
    // installed the mapping — return it, as the real fault path does.
    if (std::optional<pt::Pte> existing = proc.page_table().lookup(gvpn)) {
        return {.ok = true,
                .frame = existing->frame(),
                .cycles = costs_.fault_base};
    }

    stats_.faults_handled.inc();

    AllocOutcome alloc = provider_->allocate_page(proc, gvpn);
    if (!alloc.ok) {
        // Run the pressure check (a reclaim sweep only when watermarks
        // or an armed fault plan call for one), then retry once.
        check_memory_pressure();
        alloc = provider_->allocate_page(proc, gvpn);
        if (!alloc.ok) {
            // Dead last resort: pop ballooned frames back into the buddy
            // (a no-op — and bit-identical to the historic path — when
            // the host never inflated the balloon), and failing that,
            // every frame the provider still parks.
            if (balloon_deflate(64) > 0)
                alloc = provider_->allocate_page(proc, gvpn);
            if (!alloc.ok && reclaim_all_held() > 0)
                alloc = provider_->allocate_page(proc, gvpn);
            if (!alloc.ok) {
                stats_.oom_events.inc();
                return {.ok = false};
            }
        }
    }

    if (!proc.page_table().map(gvpn, {.writable = true, .frame = alloc.gfn}))
        ptm_throw("guest OOM while allocating page-table nodes for pid %d",
                  proc.pid());

    memory_.set_use(alloc.gfn, 1, mem::FrameUse::Data, proc.pid());
    proc.add_rss(1);
    stats_.pages_mapped.inc();

    check_memory_pressure();

    Cycles total = costs_.fault_base + costs_.zero_page + alloc.cycles;
    stats_.fault_latency.record(total);
    if (trace_ != nullptr)
        trace_->event_now("guest_fault", "kernel", total,
                          {{"pid", static_cast<std::uint64_t>(proc.pid())},
                           {"gvpn", gvpn},
                           {"gfn", alloc.gfn}});

    return {.ok = true, .frame = alloc.gfn, .cycles = total};
}

bool
GuestKernel::is_cow(const Process &proc, std::uint64_t gvpn) const
{
    std::optional<pt::Pte> pte = proc.page_table().lookup(gvpn);
    return pte && pte->cow();
}

Cycles
GuestKernel::handle_write(Process &proc, std::uint64_t gvpn)
{
    std::optional<pt::Pte> pte = proc.page_table().lookup(gvpn);
    if (!pte || !pte->cow())
        return 0;

    stats_.write_faults.inc();
    std::uint64_t gfn = pte->frame();

    auto shared = shared_frames_.find(gfn);
    if (shared == shared_frames_.end() || shared->second <= 1) {
        // Sole remaining owner: take the frame private again in place.
        if (shared != shared_frames_.end())
            shared_frames_.erase(shared);
        proc.page_table().update(gvpn, {.writable = true, .frame = gfn});
        memory_.set_use(gfn, 1, mem::FrameUse::Data, proc.pid());
        invalidate_translation(proc, gvpn);
        return costs_.fault_base;
    }

    // Copy: COW pages bypass the provider (PTEMagnet cannot enhance
    // contiguity among COWs, §4.4) and go straight to the buddy.
    --shared->second;
    if (shared->second == 1)
        shared_frames_.erase(shared);
    std::optional<std::uint64_t> copy = buddy_.allocate_frame();
    if (!copy) {
        // COW pages bypass the provider, but reclaim can still free
        // parked reservation frames: the pressure check first, then
        // every parked frame, before giving up.
        check_memory_pressure();
        copy = buddy_.allocate_frame();
        if (!copy && reclaim_all_held() > 0)
            copy = buddy_.allocate_frame();
        if (!copy)
            ptm_throw("guest OOM on COW break for pid %d", proc.pid());
    }
    memory_.set_use(*copy, 1, mem::FrameUse::Data, proc.pid());
    proc.page_table().update(gvpn, {.writable = true, .frame = *copy});
    proc.add_rss(1);
    invalidate_translation(proc, gvpn);
    return costs_.fault_base + costs_.buddy_call + costs_.cow_copy;
}

Process &
GuestKernel::fork(Process &parent)
{
    Process &child = create_process(parent.name() + "-child");
    child.set_parent_pid(parent.pid());
    child.vas() = parent.vas();

    for (const Vma &vma : parent.vas().vmas()) {
        for (std::uint64_t vpn = vma.begin_page; vpn < vma.end_page; ++vpn) {
            std::optional<pt::Pte> pte = parent.page_table().lookup(vpn);
            if (!pte)
                continue;
            std::uint64_t gfn = pte->frame();
            pt::PteFields shared_fields{
                .writable = false, .cow = true, .frame = gfn};
            parent.page_table().update(vpn, shared_fields);
            if (!child.page_table().map(vpn, shared_fields))
                ptm_throw("guest OOM while forking page tables "
                          "(pid %d -> %d)", parent.pid(), child.pid());
            child.add_rss(1);
            auto [it, inserted] = shared_frames_.emplace(gfn, 2);
            if (!inserted)
                ++it->second;
            invalidate_translation(parent, vpn);
        }
    }

    provider_->on_fork(parent, child);
    return child;
}

void
GuestKernel::release_unmapped(Process &proc, std::uint64_t gvpn, pt::Pte pte)
{
    std::uint64_t gfn = pte.frame();
    proc.add_rss(-1);
    stats_.pages_freed.inc();
    invalidate_translation(proc, gvpn);

    auto shared = shared_frames_.find(gfn);
    if (shared != shared_frames_.end()) {
        // Another mapping still references the frame; just drop ours.
        if (--shared->second <= 1)
            shared_frames_.erase(shared);
        return;
    }

    FreeDisposition disposition =
        provider_->on_page_freed(proc, gvpn, gfn);
    if (disposition == FreeDisposition::ReturnToBuddy) {
        memory_.set_use(gfn, 1, mem::FrameUse::Free);
        buddy_.free(gfn);
    }
}

void
GuestKernel::unmap_vma(Process &proc, const Vma &vma)
{
    proc.page_table().unmap_range(
        vma.begin_page, vma.end_page,
        [this, &proc](std::uint64_t gvpn, pt::Pte pte) {
            release_unmapped(proc, gvpn, pte);
        });
}

void
GuestKernel::free_page(Process &proc, std::uint64_t gvpn)
{
    std::optional<pt::Pte> pte = proc.page_table().lookup(gvpn);
    if (pte) {
        proc.page_table().unmap(gvpn);
        release_unmapped(proc, gvpn, *pte);
    }
}

void
GuestKernel::free_region(Process &proc, Addr base)
{
    std::optional<Vma> vma = proc.vas().munmap(base);
    if (!vma)
        ptm_panic("free_region: 0x%llx is not a region base",
                  static_cast<unsigned long long>(base));
    unmap_vma(proc, *vma);
}

void
GuestKernel::exit_process(Process &proc)
{
    for (const Vma &vma : proc.vas().vmas())
        unmap_vma(proc, vma);
    provider_->on_process_exit(proc);
    processes_.erase(proc.pid());
}

void
GuestKernel::check_memory_pressure()
{
    // Injected pressure first: an armed FaultPlan opens episodes at
    // deterministic fault counts regardless of the watermark state.
    if (pressure_agent_ != nullptr) {
        if (std::uint64_t target = pressure_agent_->pressure_tick()) {
            stats_.reclaim_runs.inc();
            std::uint64_t reclaimed = provider_->reclaim(target);
            stats_.frames_reclaimed.inc(reclaimed);
            if (trace_ != nullptr)
                trace_->event_now("reclaim_sweep", "kernel", 0,
                                  {{"target", target},
                                   {"reclaimed", reclaimed}});
        }
    }

    if (reclaim_policy_.low_watermark_frames == 0)
        return;
    if (buddy_.free_frames_count() >= reclaim_policy_.low_watermark_frames)
        return;
    std::uint64_t target =
        reclaim_policy_.high_watermark_frames > buddy_.free_frames_count()
            ? reclaim_policy_.high_watermark_frames -
                  buddy_.free_frames_count()
            : 0;
    if (target == 0)
        return;
    stats_.reclaim_runs.inc();
    std::uint64_t reclaimed = provider_->reclaim(target);
    stats_.frames_reclaimed.inc(reclaimed);
    if (trace_ != nullptr)
        trace_->event_now("reclaim_sweep", "kernel", 0,
                          {{"target", target}, {"reclaimed", reclaimed}});
}

std::uint64_t
GuestKernel::reclaim_all_held()
{
    const std::uint64_t held = provider_->held_frames();
    if (held == 0)
        return 0;
    stats_.reclaim_runs.inc();
    const std::uint64_t reclaimed = provider_->reclaim(held);
    stats_.frames_reclaimed.inc(reclaimed);
    return reclaimed;
}

std::uint64_t
GuestKernel::balloon_inflate(std::uint64_t target,
                             std::vector<std::uint64_t> &out_gfns)
{
    if (target == 0)
        return 0;
    stats_.balloon_inflations.inc();

    std::uint64_t taken = 0;
    while (taken < target) {
        std::optional<std::uint64_t> gfn = buddy_.allocate_frame();
        if (!gfn) {
            // Free list dry: squeeze provider-held frames (reservation
            // tails etc.) back into the buddy, then keep going.
            std::uint64_t reclaimed = provider_->reclaim(target - taken);
            if (reclaimed == 0)
                break;  // the guest genuinely has nothing left to give
            stats_.reclaim_runs.inc();
            stats_.frames_reclaimed.inc(reclaimed);
            continue;
        }
        memory_.set_use(*gfn, 1, mem::FrameUse::Kernel);
        balloon_.push_back(*gfn);
        out_gfns.push_back(*gfn);
        ++taken;
    }
    stats_.balloon_pages_taken.inc(taken);
    return taken;
}

std::uint64_t
GuestKernel::balloon_deflate(std::uint64_t max_frames)
{
    std::uint64_t returned = 0;
    while (returned < max_frames && !balloon_.empty()) {
        std::uint64_t gfn = balloon_.back();
        balloon_.pop_back();
        memory_.set_use(gfn, 1, mem::FrameUse::Free);
        buddy_.free(gfn);
        ++returned;
    }
    stats_.balloon_pages_returned.inc(returned);
    return returned;
}

void
GuestKernel::register_stats(obs::StatRegistry &registry,
                            const std::string &prefix)
{
    const std::string k = prefix + ".kernel";
    registry.counter(k + ".faults_handled", &stats_.faults_handled);
    registry.counter(k + ".write_faults", &stats_.write_faults);
    registry.counter(k + ".pages_mapped", &stats_.pages_mapped);
    registry.counter(k + ".pages_freed", &stats_.pages_freed);
    registry.counter(k + ".reclaim_runs", &stats_.reclaim_runs);
    registry.counter(k + ".frames_reclaimed", &stats_.frames_reclaimed);
    registry.counter(k + ".oom_events", &stats_.oom_events);
    registry.counter(k + ".balloon_inflations",
                     &stats_.balloon_inflations);
    registry.counter(k + ".balloon_pages_taken",
                     &stats_.balloon_pages_taken);
    registry.counter(k + ".balloon_pages_returned",
                     &stats_.balloon_pages_returned);
    registry.histogram(k + ".fault_latency", &stats_.fault_latency);
    buddy_.register_stats(registry, prefix + ".buddy");
}

}  // namespace ptm::vm
