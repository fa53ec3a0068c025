/**
 * @file
 * System assembly and execution: one host kernel + N guest VMs (each with
 * its own guest kernel, provider, and jobs) sharing the host buddy
 * allocator and cache hierarchy, one core (MMU) per colocated job, and
 * the round-robin scheduler that interleaves the jobs' memory operations.
 *
 * On top of the multi-VM plumbing sits the overcommit-survival layer: a
 * host reclaim daemon (balloon sweeps with bounded exponential backoff),
 * a deterministic OOM-killer whose kills are recorded per VM instead of
 * crashing the run, and a seeded churn engine that boots/kills/forks VMs
 * between run chunks. All of it is inert — one branch per host fault —
 * unless armed, and single-VM configs stay bit-identical to historic runs.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "common/params.hpp"
#include "common/stats.hpp"
#include "host/host_kernel.hpp"
#include "mmu/nested_walker.hpp"
#include "obs/dirty_ring.hpp"
#include "obs/stat_registry.hpp"
#include "sim/overcommit.hpp"
#include "sim/platform.hpp"
#include "vm/guest_kernel.hpp"
#include "workload/workload.hpp"

namespace ptm::core {
class PtemagnetProvider;
}

namespace ptm::obs {
class TraceSink;
}

namespace ptm::sim {

class FaultInjector;

/// Per-job measurement stats, owned by the job and registered under
/// "vm<K>.core<N>.job.*" with Measurement scope (cleared by
/// System::reset_measurement()).
struct JobStats {
    Counter ops;
    Counter cycles;
    Counter data_accesses;
    Counter data_mem_accesses;  ///< data accesses served by main memory
    Counter data_cycles;
};

class System;

/**
 * One guest VM sharing the host: its host-side instance, guest kernel,
 * walker fault context, and degradation record. Slots are append-only —
 * a killed VM keeps its slot (guest kernel, registered stats, status)
 * with vm == nullptr, so registry paths and indices stay stable.
 */
struct VmSlot {
    unsigned index = 0;              ///< position in System::vm slots
    System *system = nullptr;
    host::VmInstance *vm = nullptr;  ///< null once the VM was killed
    std::unique_ptr<vm::GuestKernel> guest;
    mmu::HostContext host_ctx;       ///< this VM's host-fault context
    core::PtemagnetProvider *ptemagnet = nullptr;
    std::string prefix;              ///< registry namespace ("vm<K>")
    bool alive = true;
    bool churn_booted = false;       ///< booted by the churn engine
    /// EntryStatus-style degradation record: "alive", "oom_killed",
    /// "churn_killed".
    std::string status = "alive";
    std::string status_detail;
    /// Host frames freed when the VM was killed (0 while alive).
    std::uint64_t frames_repossessed = 0;
    std::uint64_t backed_pages_at_kill = 0;
    /// PML-style dirty ring; null unless System::arm_dirty_ring was
    /// called with an armed config.
    std::unique_ptr<obs::DirtyRing> dirty_ring;
};

/**
 * One colocated application: a guest process driven by a workload on a
 * dedicated core.
 */
class Job {
  public:
    Job(unsigned core, vm::Process *process,
        std::unique_ptr<workload::Workload> workload);

    unsigned core() const { return core_; }
    vm::Process &process() { return *process_; }
    const vm::Process &process() const { return *process_; }
    workload::Workload &workload() { return *workload_; }

    bool finished() const { return finished_; }
    bool paused() const { return paused_; }
    /// Pause or resume the job (between run_until calls).
    void set_paused(bool paused);

    const JobStats &stats() const { return stats_; }

    /// Registry path prefix of this job's stats ("vm<K>.core<N>").
    const std::string &stat_prefix() const { return stat_prefix_; }

    /// Owning system (set when the job is added; never null afterwards).
    const System *system() const { return system_; }

    /// Index of the VM slot this job runs in.
    unsigned vm_index() const { return slot_->index; }

    mmu::NestedWalker &walker() { return *walker_; }
    const mmu::NestedWalker &walker() const { return *walker_; }

  private:
    friend class System;

    unsigned core_;
    System *system_ = nullptr;
    VmSlot *slot_ = nullptr;
    vm::Process *process_;
    std::unique_ptr<workload::Workload> workload_;
    std::unique_ptr<mmu::NestedWalker> walker_;
    mmu::GuestContext guest_ctx_;
    std::unique_ptr<workload::WorkloadContext> workload_ctx_;
    JobStats stats_;
    std::string stat_prefix_;
    bool finished_ = false;
    bool paused_ = false;
    bool cow_possible_ = false;  ///< set after the process is forked
    bool core_released_ = false; ///< core returned to the free pool
};

/**
 * The whole simulated machine. Construction order matters and is managed
 * internally: host kernel -> VM 0 -> guest kernel -> hierarchy -> cores.
 * Additional VMs are booted with boot_vm() and appear as later slots.
 */
class System {
  public:
    /// @param num_cores upper bound on colocated jobs (all VMs combined).
    System(const PlatformConfig &config, unsigned num_cores);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Boot an additional guest VM of the platform's guest size sharing
     * this host. Its components register under "vm<K>.*"; it starts with
     * the kernel's default buddy provider (see the two-argument
     * set_policy).
     * @return the new VM's slot index.
     * @throws SimError when the host cannot back the VM's boot frames.
     */
    unsigned boot_vm();

    unsigned num_vms() const { return static_cast<unsigned>(slots_.size()); }
    bool vm_alive(unsigned index) const { return slot_at(index).alive; }
    const VmSlot &vm_slot(unsigned index) const { return slot_at(index); }

    /**
     * Install VM @p index's guest allocation policy by factory name (call
     * before that VM has jobs, at most once per VM). Registers the
     * provider's counters under "vm<K>.provider".
     * @throws SimError if @p name is unknown.
     */
    void set_policy(unsigned index, const std::string &name,
                    const PolicyParams &params = {});
    /// VM 0's policy (the historic single-VM call).
    void
    set_policy(const std::string &name, const PolicyParams &params = {})
    {
        set_policy(0, name, params);
    }

    /**
     * Arm deterministic fault injection: hand @p injector's gates to the
     * host buddy and every guest buddy (current and future VMs) and its
     * pressure agent to the guest kernels. The injector must outlive this
     * System (declare it first); without this call every hook stays null
     * and the hot path is untouched.
     */
    void arm_fault_injection(FaultInjector &injector);

    /**
     * Arm the host overcommit-survival daemon (watermark balloon sweeps,
     * backoff, OOM-kill). Call at most once, before running; a policy
     * with armed() == false is a no-op. Registers daemon counters under
     * "host.overcommit".
     * @throws SimError when the high watermark is below the low one.
     */
    void set_overcommit(const OvercommitPolicy &policy);
    const OvercommitStats &overcommit_stats() const { return ocstats_; }

    /**
     * Install the seeded churn schedule (call at most once, before
     * running). Events fire from churn_tick(); arming also registers the
     * "host.overcommit" counters if set_overcommit has not.
     */
    void set_churn_plan(const ChurnPlan &plan);
    bool churn_armed() const { return churn_.armed(); }

    /**
     * Arm per-VM dirty rings (call at most once, before running; a
     * config with armed() == false is a no-op). Every current and
     * future VM gets a ring registered under "vm<K>.dirty_ring"; the
     * stepper logs the gfn of each retired write walk into the owning
     * VM's ring, epochs close on the churn/reclaim slow paths, and —
     * with reclaim_by_ws — balloon sweeps visit VMs in descending
     * idle-memory order. Disarmed, the hot path pays one bool check.
     */
    void arm_dirty_ring(const DirtyRingConfig &config);
    bool dirty_ring_armed() const { return dirty_log_armed_; }
    /// VM @p index's ring, or nullptr when disarmed.
    const obs::DirtyRing *
    dirty_ring(unsigned index) const
    {
        return slot_at(index).dirty_ring.get();
    }

    /**
     * Apply every churn event whose at_step has been reached. Must be
     * called between run chunks, never from inside run_until: boots and
     * forks append to the job vector the scheduler iterates.
     */
    void churn_tick();

    /**
     * Kill VM @p index: finish its jobs (returning their cores to the
     * free pool), repossess its host frames, and record @p status /
     * @p detail in its slot. Idempotent; VM 0 can be killed too (the
     * scenario runner guards its own accesses). Safe between run chunks
     * and from the host fault path of a *different* VM.
     */
    void kill_vm(unsigned index, const char *status, std::string detail);

    /**
     * Add a job running @p workload in VM @p vm_index; calls
     * workload->setup() immediately (eager virtual allocation, no faults
     * yet).
     */
    Job &add_job(unsigned vm_index,
                 std::unique_ptr<workload::Workload> workload);
    /// VM 0 job (the historic single-VM call).
    Job &
    add_job(std::unique_ptr<workload::Workload> workload)
    {
        return add_job(0, std::move(workload));
    }

    /**
     * Fork @p parent's process (COW-sharing all its pages) and drive the
     * child with @p workload on its own core, in the parent's VM. Marks
     * both jobs as COW-capable so writes check for pending breaks.
     */
    Job &fork_job(Job &parent,
                  std::unique_ptr<workload::Workload> workload);

    /**
     * Execute exactly one operation of @p job: fetch it from the
     * workload, break COW on writes once the process has forked,
     * translate, log a retired write walk to the dirty ring, access the
     * data line, charge the job's counters, and emit a trace event when a
     * sink is armed.
     */
    void step(Job &job);

    /**
     * Round-robin over non-paused, non-finished jobs in slices of
     * config.slice_ops step() calls until @p stop returns true (checked
     * between slices) or every job finished. Templated on the predicate
     * so the per-slice stop check is a direct call, not a std::function
     * hop.
     *
     * A round visits runnable_, the runnable jobs in jobs_ order,
     * collected again at the top of a round after a job was added,
     * paused, resumed or finished. The job vector is never mutated from
     * inside this loop: churn boots/forks happen in churn_tick() between
     * calls, and OOM kills reached through a fault only flip finished_
     * flags, which the round checks again per job.
     */
    template <typename Stop>
    void
    run_until(Stop &&stop)
    {
        while (!stop()) {
            if (runnable_stale_)
                collect_runnable();
            if (runnable_.empty())
                return;
            for (Job *job : runnable_) {
                if (job->finished_ || job->paused_)
                    continue;
                for (unsigned i = 0;
                     i < config_.slice_ops && !job->finished_; ++i) {
                    step(*job);
                }
                if (stop())
                    return;
            }
        }
    }

    /// Run until @p job leaves its init phase (faulting in its data).
    void run_until_init_done(Job &job);

    /// Run until @p job has executed @p ops more operations.
    void run_ops(Job &job, std::uint64_t ops);

    /// Reset all measurement-window statistics (jobs, walkers, caches) —
    /// exactly the registry entries registered with Measurement scope.
    void reset_measurement();

    /// VM @p index's guest kernel (alive even after a kill: only the
    /// host-side instance dies).
    vm::GuestKernel &guest(unsigned index) { return *slot_at(index).guest; }
    const vm::GuestKernel &
    guest(unsigned index) const
    {
        return *slot_at(index).guest;
    }
    /// VM 0's guest kernel (the historic single-VM accessor).
    vm::GuestKernel &guest() { return guest(0); }

    host::HostKernel &host() { return *host_; }

    /// VM 0's host-side instance (the historic single-VM accessor).
    /// Panics if VM 0 has been killed — use vm_if_alive() when the
    /// scenario can OOM-kill it.
    host::VmInstance &vm() { return vm_instance(0); }
    const host::VmInstance &
    vm() const
    {
        return const_cast<System *>(this)->vm_instance(0);
    }
    /// VM @p index's instance, or nullptr once killed.
    const host::VmInstance *
    vm_if_alive(unsigned index) const
    {
        return slot_at(index).vm;
    }

    cache::MemoryHierarchy &hierarchy() { return *hierarchy_; }
    const cache::MemoryHierarchy &hierarchy() const { return *hierarchy_; }
    const PlatformConfig &config() const { return config_; }

    /// Every component's counters and histograms, by hierarchical path.
    obs::StatRegistry &stat_registry() { return registry_; }
    const obs::StatRegistry &stat_registry() const { return registry_; }

    /**
     * Arm (or with nullptr disarm) chrome-trace event emission: walk
     * events from the stepper, fault/reclaim events from the kernels.
     * The sink must outlive this System or be disarmed first. Unarmed,
     * every emit site is a single null check and runs are bit-identical
     * to a build without tracing.
     */
    void set_trace_sink(obs::TraceSink *sink);

    /// Operations executed across all jobs since construction. Unlike the
    /// per-job counters this is never reset by reset_measurement(): it is
    /// the denominator of the simulator-throughput metric — and the clock
    /// the churn schedule is keyed on.
    std::uint64_t total_steps() const { return total_steps_; }

    /// Every job, in scheduling order. Read-only: run_until's runnable
    /// list points into it, so only System adds jobs.
    const std::vector<std::unique_ptr<Job>> &jobs() const { return jobs_; }

    /// True when a job slot (free core) is available for a new job.
    bool
    has_free_core() const
    {
        return !free_cores_.empty() ||
               next_core_ < hierarchy_->num_cores();
    }

    /// VM @p index's PTEMagnet provider, when enabled (nullptr otherwise).
    core::PtemagnetProvider *
    ptemagnet(unsigned index) const
    {
        return slot_at(index).ptemagnet;
    }
    /// VM 0's provider (the historic single-VM accessor).
    core::PtemagnetProvider *ptemagnet() { return ptemagnet(0); }

  private:
    friend class Job;
    class JobWorkloadContext;

    VmSlot &
    slot_at(unsigned index)
    {
        return const_cast<VmSlot &>(
            static_cast<const System *>(this)->slot_at(index));
    }
    const VmSlot &slot_at(unsigned index) const;
    host::VmInstance &vm_instance(unsigned index);

    /// Boot a slot (VM 0 from the constructor, others from boot_vm /
    /// churn_boot) and register its "vm<K>" subtree.
    unsigned boot_slot(std::uint64_t guest_frames, bool churn_booted);

    Job &make_job(VmSlot &slot, vm::Process &process,
                  std::unique_ptr<workload::Workload> workload);

    /// Rebuild runnable_ from jobs_.
    void collect_runnable();

    // ---- overcommit-survival internals -----------------------------
    mmu::FaultOutcome handle_host_fault(VmSlot &slot, std::uint64_t gfn);
    void reclaim_daemon_tick();
    std::uint64_t reclaim_sweep(std::uint64_t target);
    int choose_oom_victim(unsigned faulting_index) const;
    void register_overcommit_stats();

    // ---- dirty-ring internals --------------------------------------
    void attach_dirty_ring(VmSlot &slot);
    void close_dirty_epochs();

    void churn_boot();
    void churn_kill();
    void churn_fork();

    // FaultHook trampolines (bound once per VM slot / per job; see
    // mmu::FaultHook).
    static mmu::FaultOutcome host_fault_thunk(void *ctx,
                                              std::uint64_t gfn);
    static mmu::FaultOutcome guest_fault_thunk(void *ctx,
                                               std::uint64_t gvpn);

    PlatformConfig config_;
    std::unique_ptr<host::HostKernel> host_;
    /// Stable-address slots, VM 0 first; never shrinks.
    std::vector<std::unique_ptr<VmSlot>> slots_;
    std::unique_ptr<cache::MemoryHierarchy> hierarchy_;
    std::vector<std::unique_ptr<Job>> jobs_;
    /// Jobs neither finished nor paused, in jobs_ order; rebuilt by
    /// run_until when runnable_stale_ is set.
    std::vector<Job *> runnable_;
    bool runnable_stale_ = true;
    obs::StatRegistry registry_;
    obs::TraceSink *trace_ = nullptr;      ///< normally unarmed
    FaultInjector *injector_ = nullptr;    ///< normally unarmed
    /// Never registered: survives reset_measurement() as the denominator
    /// of the simulator-throughput metric.
    std::uint64_t total_steps_ = 0;

    // Core pool: cores freed by kill_vm are reused before fresh ones.
    std::vector<unsigned> free_cores_;
    unsigned next_core_ = 0;

    // Overcommit daemon state (all inert unless overcommit_.armed()).
    OvercommitPolicy overcommit_;
    OvercommitStats ocstats_;
    bool ocstats_registered_ = false;
    std::uint64_t reclaim_ticks_ = 0;    ///< armed host faults seen
    std::uint64_t next_sweep_tick_ = 0;
    std::uint64_t backoff_ = 0;
    std::vector<std::uint64_t> balloon_scratch_;
    std::vector<VmSlot *> sweep_scratch_;

    // Dirty-ring state (inert unless arm_dirty_ring armed it).
    DirtyRingConfig dirty_ring_cfg_;
    bool dirty_log_armed_ = false;  ///< hot-path flag for the stepper

    // Churn engine state.
    ChurnPlan churn_;
    std::size_t churn_cursor_ = 0;
    std::uint64_t churn_boot_seq_ = 0;   ///< boots attempted (seed salt)
    std::uint64_t churn_fork_seq_ = 0;   ///< forks done (round-robin)
};

}  // namespace ptm::sim
