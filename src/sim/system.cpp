#include "sim/system.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/provider_factory.hpp"
#include "core/ptemagnet_provider.hpp"
#include "obs/trace_sink.hpp"
#include "sim/fault_injection.hpp"
#include "workload/catalog.hpp"

namespace ptm::sim {

Job::Job(unsigned core, vm::Process *process,
         std::unique_ptr<workload::Workload> workload)
    : core_(core), process_(process), workload_(std::move(workload))
{
}

void
Job::set_paused(bool paused)
{
    paused_ = paused;
    if (system_ != nullptr)
        system_->runnable_stale_ = true;
}

/**
 * WorkloadContext implementation binding a workload to its process: mmap
 * and munmap go through the job's guest kernel and are charged to the job.
 */
class System::JobWorkloadContext final : public workload::WorkloadContext {
  public:
    JobWorkloadContext(System *system, Job *job)
        : system_(system), job_(job)
    {
    }

    Addr
    mmap(Addr bytes) override
    {
        job_->stats_.cycles.inc(system_->config_.mmap_cycles);
        return job_->process_->vas().mmap(bytes);
    }

    void
    munmap(Addr base) override
    {
        // Charge teardown per page currently backed.
        const vm::Vma *vma = job_->process_->vas().find(page_number(base));
        if (vma != nullptr) {
            job_->stats_.cycles.inc(
                system_->config_.munmap_page_cycles * vma->pages());
        }
        job_->slot_->guest->free_region(*job_->process_, base);
    }

    void
    free_page(Addr gva) override
    {
        job_->stats_.cycles.inc(system_->config_.munmap_page_cycles);
        job_->slot_->guest->free_page(*job_->process_, page_number(gva));
    }

  private:
    System *system_;
    Job *job_;
};

System::System(const PlatformConfig &config, unsigned num_cores)
    : config_(config)
{
    host_ = std::make_unique<host::HostKernel>(config_.host_frames,
                                               config_.host_costs);
    if (config_.translation_table != "radix")
        host_->set_translation_table(config_.translation_table);

    // VM 0 boots first so the registration order of single-VM runs stays
    // exactly historic: "vm0" -> "host" -> "vm0.hier".
    boot_slot(config_.guest_frames, /*churn_booted=*/false);

    hierarchy_ = std::make_unique<cache::MemoryHierarchy>(
        config_.hierarchy, num_cores);

    // Wire every component into the stat registry up front; jobs add
    // their per-core subtrees as they are created. Registration is
    // pointer capture only — the hot path never consults the registry.
    host_->register_stats(registry_, "host");
    // The shared hierarchy keeps its historic "vm0.hier" path: it is one
    // machine-level component, and path stability matters more than the
    // (single-VM era) prefix.
    hierarchy_->register_stats(registry_, "vm0.hier");

    // Balloon shootdowns: a host backing dropped by unback() may still be
    // cached in the owning VM's nested TLBs (keyed by gfn, so no other
    // VM can alias it).
    host_->on_backing_invalidated =
        [this](std::int32_t vm_id, std::uint64_t gfn) {
            for (auto &slot : slots_) {
                if (slot->vm == nullptr || slot->vm->id() != vm_id)
                    continue;
                for (auto &job : jobs_) {
                    if (job->slot_ == slot.get())
                        job->walker_->invalidate_nested(gfn);
                }
                return;
            }
        };
}

System::~System() = default;

const VmSlot &
System::slot_at(unsigned index) const
{
    if (index >= slots_.size())
        ptm_fatal("no vm slot %u (have %zu)", index, slots_.size());
    return *slots_[index];
}

host::VmInstance &
System::vm_instance(unsigned index)
{
    VmSlot &slot = slot_at(index);
    if (slot.vm == nullptr)
        ptm_panic("vm%u is dead (%s): no host-side instance", index,
                  slot.status.c_str());
    return *slot.vm;
}

unsigned
System::boot_slot(std::uint64_t guest_frames, bool churn_booted)
{
    const unsigned index = static_cast<unsigned>(slots_.size());
    auto slot = std::make_unique<VmSlot>();
    slot->index = index;
    slot->system = this;
    slot->prefix = "vm" + std::to_string(index);
    slot->churn_booted = churn_booted;

    // Throws a recoverable SimError when the host cannot back the boot
    // page-table frames; nothing is registered in that case.
    slot->vm = &host_->create_vm();

    slot->guest = std::make_unique<vm::GuestKernel>(
        guest_frames != 0 ? guest_frames : config_.guest_frames,
        config_.guest_costs);
    if (config_.translation_table != "radix")
        slot->guest->set_translation_table(config_.translation_table);

    slot->host_ctx = mmu::HostContext{
        .page_table = &slot->vm->page_table(),
        .fault_handler =
            mmu::FaultHook(&System::host_fault_thunk, slot.get()),
    };

    // Stale-translation shootdowns: drop the data-TLB entry on the core
    // of the affected process (scoped to this VM's jobs).
    VmSlot *raw = slot.get();
    slot->guest->on_translation_invalidated =
        [this, raw](std::int32_t pid, std::uint64_t gvpn) {
            for (auto &job : jobs_) {
                if (job->slot_ == raw && job->process_->pid() == pid)
                    job->walker_->invalidate(gvpn);
            }
        };

    slot->guest->register_stats(registry_, slot->prefix);
    if (trace_ != nullptr)
        slot->guest->set_trace_sink(trace_);
    if (injector_ != nullptr) {
        slot->guest->buddy().set_alloc_gate(injector_->guest_gate());
        slot->guest->set_pressure_agent(injector_);
    }
    if (dirty_log_armed_)
        attach_dirty_ring(*slot);

    slots_.push_back(std::move(slot));
    return index;
}

unsigned
System::boot_vm()
{
    return boot_slot(0, /*churn_booted=*/false);
}

void
System::set_policy(unsigned index, const std::string &name,
                   const PolicyParams &params)
{
    VmSlot &slot = slot_at(index);
    for (auto &job : jobs_) {
        if (job->slot_ == &slot)
            ptm_fatal("set the allocation policy before adding jobs");
    }
    std::unique_ptr<vm::PhysicalPageProvider> provider =
        core::make_provider(name, slot.guest.get(), params);
    slot.ptemagnet = dynamic_cast<core::PtemagnetProvider *>(provider.get());
    provider->register_stats(registry_, slot.prefix + ".provider");
    slot.guest->set_provider(std::move(provider));
}

void
System::arm_fault_injection(FaultInjector &injector)
{
    for (auto &slot : slots_)
        slot->guest->buddy().set_alloc_gate(injector.guest_gate());
    host_->buddy().set_alloc_gate(injector.host_gate());
    for (auto &slot : slots_)
        slot->guest->set_pressure_agent(&injector);
    injector.register_stats(registry_, "fault_injection");
    injector_ = &injector;  // VMs booted later are gated in boot_slot
}

void
System::register_overcommit_stats()
{
    if (ocstats_registered_)
        return;
    ocstats_.register_stats(registry_, "host.overcommit");
    ocstats_registered_ = true;
}

void
System::set_overcommit(const OvercommitPolicy &policy)
{
    if (overcommit_.armed())
        ptm_fatal("overcommit policy already armed");
    if (!policy.armed())
        return;
    if (policy.high_watermark_frames < policy.low_watermark_frames)
        ptm_throw("overcommit high watermark below the low watermark");
    overcommit_ = policy;
    backoff_ = overcommit_.backoff_initial;
    next_sweep_tick_ = 0;
    register_overcommit_stats();
}

void
System::set_churn_plan(const ChurnPlan &plan)
{
    if (churn_.armed())
        ptm_fatal("churn plan already armed");
    if (!plan.armed())
        return;
    churn_ = plan;
    churn_cursor_ = 0;
    register_overcommit_stats();
}

void
System::attach_dirty_ring(VmSlot &slot)
{
    slot.dirty_ring = std::make_unique<obs::DirtyRing>(
        dirty_ring_cfg_.ring_entries, dirty_ring_cfg_.epoch_ops,
        total_steps_);
    slot.dirty_ring->stats().register_stats(registry_,
                                            slot.prefix + ".dirty_ring");
}

void
System::arm_dirty_ring(const DirtyRingConfig &config)
{
    if (dirty_log_armed_)
        ptm_fatal("dirty ring already armed");
    if (!config.armed())
        return;
    dirty_ring_cfg_ = config;
    dirty_log_armed_ = true;
    for (auto &slot : slots_)
        attach_dirty_ring(*slot);  // VMs booted later attach in boot_slot
}

void
System::close_dirty_epochs()
{
    for (auto &slot : slots_) {
        if (slot->alive)
            slot->dirty_ring->maybe_close_epoch(total_steps_);
    }
}

void
System::set_trace_sink(obs::TraceSink *sink)
{
    trace_ = sink;
    for (auto &slot : slots_)
        slot->guest->set_trace_sink(sink);
    host_->set_trace_sink(sink);
}

Job &
System::add_job(unsigned vm_index,
                std::unique_ptr<workload::Workload> workload)
{
    VmSlot &slot = slot_at(vm_index);
    if (!slot.alive)
        ptm_fatal("cannot add a job to dead vm%u", vm_index);
    vm::Process &process = slot.guest->create_process(workload->name());
    return make_job(slot, process, std::move(workload));
}

Job &
System::fork_job(Job &parent, std::unique_ptr<workload::Workload> workload)
{
    VmSlot &slot = *parent.slot_;
    vm::Process &child = slot.guest->fork(parent.process());
    Job &job = make_job(slot, child, std::move(workload));
    parent.cow_possible_ = true;
    job.cow_possible_ = true;
    return job;
}

Job &
System::make_job(VmSlot &slot, vm::Process &process,
                 std::unique_ptr<workload::Workload> workload)
{
    // Reuse cores returned by killed VMs before minting fresh ones; with
    // no kills the assignment sequence is the historic jobs_.size().
    unsigned core;
    if (!free_cores_.empty()) {
        core = free_cores_.back();
        free_cores_.pop_back();
    } else {
        if (next_core_ >= hierarchy_->num_cores())
            ptm_fatal("more jobs than cores (%u)", hierarchy_->num_cores());
        core = next_core_++;
    }

    auto job = std::make_unique<Job>(core, &process, std::move(workload));
    job->system_ = this;
    job->slot_ = &slot;
    job->walker_ = std::make_unique<mmu::NestedWalker>(
        core, config_.tlb, hierarchy_.get(), slot.host_ctx);
    job->stat_prefix_ = slot.prefix + ".core" + std::to_string(core);
    const std::string j = job->stat_prefix_ + ".job";
    const obs::ResetScope scope = obs::ResetScope::Measurement;
    registry_.counter(j + ".ops", &job->stats_.ops, scope);
    registry_.counter(j + ".cycles", &job->stats_.cycles, scope);
    registry_.counter(j + ".data_accesses", &job->stats_.data_accesses,
                      scope);
    registry_.counter(j + ".data_mem_accesses",
                      &job->stats_.data_mem_accesses, scope);
    registry_.counter(j + ".data_cycles", &job->stats_.data_cycles, scope);
    job->walker_->register_stats(registry_, job->stat_prefix_);
    job->guest_ctx_ = mmu::GuestContext{
        .page_table = &process.page_table(),
        .fault_handler =
            mmu::FaultHook(&System::guest_fault_thunk, job.get()),
        // The PWC's resume contract only holds for radix hierarchies.
        .use_pwc = process.page_table().radix_levels(),
    };
    job->workload_ctx_ =
        std::make_unique<JobWorkloadContext>(this, job.get());
    job->workload_->setup(*job->workload_ctx_);

    jobs_.push_back(std::move(job));
    runnable_stale_ = true;
    return *jobs_.back();
}

void
System::kill_vm(unsigned index, const char *status, std::string detail)
{
    VmSlot &slot = slot_at(index);
    if (!slot.alive)
        return;

    // Finish the VM's jobs and return their cores to the pool. The job
    // vector itself is never mutated: run_until may be iterating it.
    for (auto &job : jobs_) {
        if (job->slot_ != &slot)
            continue;
        job->finished_ = true;
        runnable_stale_ = true;
        if (!job->core_released_) {
            free_cores_.push_back(job->core_);
            job->core_released_ = true;
        }
    }

    slot.alive = false;
    slot.status = status;
    slot.status_detail = std::move(detail);
    slot.backed_pages_at_kill = slot.vm->backed_pages();
    slot.frames_repossessed = host_->destroy_vm(*slot.vm);
    slot.vm = nullptr;
    slot.host_ctx.page_table = nullptr;
}

// ---- overcommit survival ----------------------------------------------

std::uint64_t
System::reclaim_sweep(std::uint64_t target)
{
    ocstats_.reclaim_sweeps.inc();
    sweep_scratch_.clear();
    for (auto &slot : slots_) {
        if (slot->alive)
            sweep_scratch_.push_back(slot.get());
    }
    if (dirty_log_armed_ && dirty_ring_cfg_.reclaim_by_ws) {
        // Balloon idle VMs first: idle = backed frames beyond the last
        // epoch's working-set estimate. A VM with no closed epoch yet is
        // assumed all-hot (idle 0); stable sort keeps slot order on ties
        // so the disabled and no-estimate cases degrade to the historic
        // index-order sweep.
        ocstats_.ws_guided_sweeps.inc();
        auto idle = [](const VmSlot *slot) -> std::uint64_t {
            const obs::DirtyRing &ring = *slot->dirty_ring;
            if (!ring.has_estimate())
                return 0;
            const std::uint64_t backed = slot->vm->backed_pages();
            const std::uint64_t ws = ring.estimate_pages();
            return backed > ws ? backed - ws : 0;
        };
        std::stable_sort(sweep_scratch_.begin(), sweep_scratch_.end(),
                         [&idle](const VmSlot *a, const VmSlot *b) {
                             return idle(a) > idle(b);
                         });
    }
    std::uint64_t freed = 0;
    for (VmSlot *slot : sweep_scratch_) {
        if (freed >= target)
            break;
        balloon_scratch_.clear();
        std::uint64_t taken = slot->guest->balloon_inflate(
            overcommit_.balloon_step, balloon_scratch_);
        ocstats_.balloon_pages.inc(taken);
        for (std::uint64_t gfn : balloon_scratch_) {
            // Unproductive when the guest never touched the frame: the
            // balloon took a page the host never backed.
            freed += host_->unback(*slot->vm, gfn) ? 1 : 0;
        }
    }
    ocstats_.frames_unbacked.inc(freed);
    return freed;
}

void
System::reclaim_daemon_tick()
{
    ++reclaim_ticks_;
    // Estimates stay fresh on the daemon's own clock so ws-guided
    // sweeps see current epochs even in chunks with no churn tick.
    if (dirty_log_armed_)
        close_dirty_epochs();
    const std::uint64_t free = host_->buddy().free_frames_count();
    if (free >= overcommit_.low_watermark_frames)
        return;
    if (reclaim_ticks_ < next_sweep_tick_) {
        ocstats_.backoff_waits.inc();
        return;
    }
    const std::uint64_t freed =
        reclaim_sweep(overcommit_.high_watermark_frames - free);
    // Bounded exponential backoff: dry sweeps space out (the guests have
    // nothing left to give), a productive sweep resets the cadence.
    backoff_ = freed == 0
                   ? std::min(backoff_ * 2, overcommit_.backoff_max)
                   : overcommit_.backoff_initial;
    next_sweep_tick_ = reclaim_ticks_ + backoff_;
}

int
System::choose_oom_victim(unsigned faulting_index) const
{
    // The VM backing the most host frames, lowest index on ties.
    const VmSlot *best = nullptr;
    for (const auto &slot : slots_) {
        const VmSlot &s = *slot;
        // Never VM 0 (the measured victim's VM), and never the faulting
        // VM: its walker is mid-descent in its own host page table.
        if (!s.alive || s.index == 0 || s.index == faulting_index)
            continue;
        if (best == nullptr ||
            s.vm->backed_pages() > best->vm->backed_pages())
            best = &s;
    }
    return best == nullptr ? -1 : static_cast<int>(best->index);
}

mmu::FaultOutcome
System::handle_host_fault(VmSlot &slot, std::uint64_t gfn)
{
    if (slot.vm == nullptr)
        return {.ok = false};  // fault from a VM killed mid-chunk

    if (overcommit_.armed())
        reclaim_daemon_tick();

    mmu::FaultOutcome out = host_->handle_fault(*slot.vm, gfn);
    if (out.ok || !overcommit_.armed())
        return out;

    // Survival ladder, rung 1: emergency balloon sweep ignoring the
    // backoff clock — the host is out of frames right now.
    ocstats_.emergency_sweeps.inc();
    reclaim_sweep(overcommit_.high_watermark_frames);
    out = host_->handle_fault(*slot.vm, gfn);
    if (out.ok)
        return out;

    // Rung 2: OOM-kill the largest VMs until the fault succeeds or
    // no candidate remains. The kill is recorded in the victim's slot —
    // the run itself survives.
    while (overcommit_.oom_kill_enabled) {
        const int victim = choose_oom_victim(slot.index);
        if (victim < 0)
            break;
        ocstats_.oom_kills.inc();
        kill_vm(static_cast<unsigned>(victim), "oom_killed",
                strprintf("host OOM backing vm%u gfn %llu", slot.index,
                          static_cast<unsigned long long>(gfn)));
        out = host_->handle_fault(*slot.vm, gfn);
        if (out.ok)
            return out;
    }
    return out;  // !ok: the walker raises a recoverable SimError
}

// ---- churn engine ------------------------------------------------------

void
System::churn_boot()
{
    ++churn_boot_seq_;
    if (!has_free_core()) {
        ocstats_.churn_boot_failures.inc();
        return;
    }
    unsigned index;
    try {
        index = boot_slot(churn_.guest_frames, /*churn_booted=*/true);
    } catch (const SimError &) {
        // Host too full to admit the VM: a refused boot, not a crash.
        ocstats_.churn_boot_failures.inc();
        return;
    }
    ocstats_.churn_boots.inc();
    workload::WorkloadOptions options;
    options.scale = churn_.scale;
    options.seed = churn_.seed + 7919ULL * churn_boot_seq_;
    add_job(index, workload::make_workload(churn_.workload, options));
}

void
System::churn_kill()
{
    for (auto &slot : slots_) {
        if (slot->churn_booted && slot->alive) {
            ocstats_.churn_kills.inc();
            kill_vm(slot->index, "churn_killed", "seeded churn storm");
            return;
        }
    }
    // No live churn VM to kill: the event is a no-op.
}

void
System::churn_fork()
{
    if (!has_free_core()) {
        ocstats_.churn_boot_failures.inc();
        return;
    }
    std::vector<Job *> candidates;
    for (auto &job : jobs_) {
        if (!job->finished_ && job->slot_->churn_booted &&
            job->slot_->alive) {
            candidates.push_back(job.get());
        }
    }
    if (candidates.empty())
        return;
    Job &parent = *candidates[churn_fork_seq_ % candidates.size()];
    ++churn_fork_seq_;
    workload::WorkloadOptions options;
    options.scale = churn_.scale;
    options.seed = churn_.seed + 104729ULL * churn_fork_seq_;
    try {
        fork_job(parent,
                 workload::make_workload(churn_.workload, options));
        ocstats_.churn_forks.inc();
    } catch (const SimError &) {
        // Guest too full to clone the address space: refused, not fatal.
        ocstats_.churn_boot_failures.inc();
    }
}

void
System::churn_tick()
{
    if (dirty_log_armed_)
        close_dirty_epochs();
    while (churn_cursor_ < churn_.events.size() &&
           churn_.events[churn_cursor_].at_step <= total_steps_) {
        const ChurnEvent &event = churn_.events[churn_cursor_++];
        switch (event.action) {
          case ChurnAction::Boot: churn_boot(); break;
          case ChurnAction::Kill: churn_kill(); break;
          case ChurnAction::Fork: churn_fork(); break;
        }
    }
}

// ---- execution ---------------------------------------------------------

void
System::step(Job &job)
{
    if (job.finished_ || job.paused_)
        return;

    std::optional<workload::MemOp> op =
        job.workload_->next(*job.workload_ctx_);
    if (!op) {
        job.finished_ = true;
        runnable_stale_ = true;
        return;
    }

    // Stamp the trace clock before any emit site can fire: kernel events
    // raised inside translate() inherit this (timestamp, tid).
    if (trace_ != nullptr)
        trace_->set_now(job.stats_.cycles.value(), job.core_);

    Cycles cycles = config_.base_op_cycles;

    // COW break check: only needed once the process has forked children.
    if (op->write && job.cow_possible_) {
        cycles += job.slot_->guest->handle_write(*job.process_,
                                                 page_number(op->gva));
    }

    mmu::TranslationResult trans =
        job.walker_->translate(job.guest_ctx_, op->gva);
    cycles += trans.cycles;

    // PML model: hardware logs the dirtied GPA when a *write walk*
    // retires — TLB hits set no dirty bit worth logging (and gfn is only
    // learned by walks anyway).
    if (dirty_log_armed_ && op->write && !trans.tlb_hit)
        job.slot_->dirty_ring->log(trans.gfn);

    Addr hpa = trans.hfn * kPageSize + (op->gva & kPageOffsetMask);
    cache::AccessResult data =
        hierarchy_->access(job.core_, hpa, cache::AccessKind::Data);
    cycles += data.latency;

    ++total_steps_;
    job.stats_.ops.inc();
    job.stats_.cycles.inc(cycles);
    job.stats_.data_accesses.inc();
    job.stats_.data_cycles.inc(data.latency);
    if (data.served_by == cache::ServedBy::Memory)
        job.stats_.data_mem_accesses.inc();

    if (trace_ != nullptr && !trans.tlb_hit) {
        trace_->event(
            "walk", "mmu", trace_->now(), trans.cycles, job.core_,
            {{"gva", op->gva},
             {"gpa", trans.gfn * kPageSize + (op->gva & kPageOffsetMask)},
             {"hpa", hpa},
             {"served_by", static_cast<std::uint64_t>(data.served_by)},
             {"walk_cycles", trans.walk_cycles},
             {"faulted", static_cast<std::uint64_t>(trans.faulted)}});
    }
}

mmu::FaultOutcome
System::host_fault_thunk(void *ctx, std::uint64_t gfn)
{
    auto *slot = static_cast<VmSlot *>(ctx);
    return slot->system->handle_host_fault(*slot, gfn);
}

mmu::FaultOutcome
System::guest_fault_thunk(void *ctx, std::uint64_t gvpn)
{
    auto *job = static_cast<Job *>(ctx);
    return job->slot_->guest->handle_fault(*job->process_, gvpn);
}

void
System::collect_runnable()
{
    runnable_.clear();
    for (const auto &job : jobs_) {
        if (!job->finished_ && !job->paused_)
            runnable_.push_back(job.get());
    }
    runnable_stale_ = false;
}

void
System::run_until_init_done(Job &job)
{
    run_until([&job]() {
        return job.finished() || !job.workload().in_init_phase();
    });
}

void
System::run_ops(Job &job, std::uint64_t ops)
{
    std::uint64_t target = job.stats_.ops.value() + ops;
    run_until([&job, target]() {
        return job.finished() || job.stats().ops.value() >= target;
    });
}

void
System::reset_measurement()
{
    registry_.reset(obs::ResetScope::Measurement);
}

}  // namespace ptm::sim
