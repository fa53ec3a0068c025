#include "sim/experiment.hpp"

#include <chrono>
#include <cmath>
#include <optional>

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/ptemagnet_provider.hpp"
#include "pt/table_factory.hpp"
#include "vm/provider_factory.hpp"
#include "workload/catalog.hpp"

namespace ptm::sim {

ScenarioConfig &
ScenarioConfig::with_workload(const std::string &name)
{
    if (!workload::workload_registered(name)) {
        // Fail the same way run_scenario would, but at config-build time;
        // make_workload throws the SimError listing registered names.
        workload::make_workload(name, {});
    }
    victim = name;
    return *this;
}

ScenarioConfig &
ScenarioConfig::with_policy(const std::string &name)
{
    if (!vm::provider_registered(name)) {
        // Fail the same way run_scenario would, but at config-build time;
        // the factory throws before it ever touches the (null) kernel.
        vm::make_provider(name, nullptr, {});
    }
    policy_name = name;
    return *this;
}

ScenarioConfig &
ScenarioConfig::with_table(const std::string &name)
{
    if (!pt::table_registered(name)) {
        // The factory throws before the frame source is ever invoked.
        pt::make_table(name, pt::FrameSource{}, {});
    }
    platform.translation_table = name;
    return *this;
}

namespace {
/// §6.2 sampling cadence, in victim operations (the paper samples every
/// second of wall time; one sample per ~64k simulated ops is comparable).
constexpr std::uint64_t kReservationSampleOps = 64 * 1024;
}  // namespace

ScenarioResult
run_scenario(const ScenarioConfig &config)
{
    const auto wall_start = std::chrono::steady_clock::now();

    // What these fields asked for was removed; a caller that sets one
    // gets an error, not a run that silently ignores it.
    if (!config.trace_record.empty())
        ptm_throw("ScenarioConfig::trace_record: trace record/replay was "
                  "removed");
    if (!config.trace_replay.empty())
        ptm_throw("ScenarioConfig::trace_replay: trace record/replay was "
                  "removed");
    if (config.cold_measurement)
        ptm_throw("ScenarioConfig::cold_measurement: the cold-start flush "
                  "was removed");

    const bool multi_vm = config.multi_vm();

    // Every job needs a core for its whole life; churn boots/forks each
    // add at most one, so size the hierarchy for the worst case.
    unsigned cores = 1;
    for (const CorunnerSpec &spec : config.corunners)
        cores += spec.workers;
    for (unsigned k = 1; k < config.vms; ++k)
        cores += config.vm_spec_for(k).workers;
    cores += static_cast<unsigned>(
        config.churn.count(ChurnAction::Boot) +
        config.churn.count(ChurnAction::Fork));

    // Declared before the System: the buddy allocators and guest kernel
    // hold raw pointers into the injector, so it must be destroyed last.
    std::optional<FaultInjector> injector;

    System system(config.platform, cores);
    // Co-resident VMs boot right after VM 0 so their slot indices (and
    // registry namespaces "vm1".."vmN-1") are assigned before any job or
    // churn event exists.
    for (unsigned k = 1; k < config.vms; ++k)
        system.boot_vm(config.vm_spec_for(k).guest_frames);
    if (config.fault_plan.armed()) {
        injector.emplace(config.fault_plan);
        system.arm_fault_injection(*injector);
    }
    // "buddy" keeps the kernel's built-in provider: no replacement, no
    // "vm0.provider" registry subtree — bit-identical to historic runs.
    const std::string policy = config.resolved_policy();
    if (policy != "buddy")
        system.set_policy(policy, config.resolved_policy_params());
    for (unsigned k = 1; k < config.vms; ++k) {
        const VmSpec spec = config.vm_spec_for(k);
        const std::string vm_policy =
            spec.policy.empty() ? policy : spec.policy;
        if (vm_policy != "buddy") {
            system.set_policy(k, vm_policy,
                              spec.policy.empty()
                                  ? config.resolved_policy_params()
                                  : spec.policy_params);
        }
    }
    system.set_overcommit(config.overcommit);  // no-op unless armed
    system.set_churn_plan(config.churn);       // no-op unless armed
    if (config.dirty_ring.armed())
        system.arm_dirty_ring(config.dirty_ring);

    workload::WorkloadOptions options;
    options.scale = config.scale;
    options.seed = config.seed;

    // Only the victim sees the config's workload knobs; co-runners keep
    // their registered defaults (their streams stay identical across
    // victim-param sweeps).
    workload::WorkloadOptions victim_options = options;
    victim_options.params = config.workload_params;
    Job &victim = system.add_job(
        workload::make_workload(config.victim, victim_options));
    unsigned worker_index = 0;
    for (const CorunnerSpec &spec : config.corunners) {
        for (unsigned w = 0; w < spec.workers; ++w) {
            workload::WorkloadOptions co_options = options;
            co_options.seed = config.seed + 1000 + (++worker_index);
            system.add_job(workload::make_workload(spec.name, co_options));
        }
    }
    for (unsigned k = 1; k < config.vms; ++k) {
        const VmSpec spec = config.vm_spec_for(k);
        for (unsigned w = 0; w < spec.workers; ++w) {
            workload::WorkloadOptions vm_options;
            vm_options.scale =
                spec.scale > 0.0 ? spec.scale : config.scale;
            vm_options.seed = config.seed + 10'000ULL * k + w;
            system.add_job(
                k, workload::make_workload(spec.workload, vm_options));
        }
    }

    ScenarioResult result;
    auto sample_reservations = [&]() {
        core::PtemagnetProvider *provider = system.ptemagnet();
        if (provider == nullptr)
            return;
        const core::Part *part = provider->part_of(victim.process().pid());
        if (part == nullptr || victim.process().rss_pages() == 0)
            return;
        double fraction =
            static_cast<double>(part->unmapped_reserved_pages()) /
            static_cast<double>(victim.process().rss_pages());
        if (fraction > result.peak_unused_reservation_fraction)
            result.peak_unused_reservation_fraction = fraction;
    };

    // Phase 0: co-runners reach steady state before the victim starts.
    if (config.corunner_warmup_ops > 0 && !config.corunners.empty()) {
        victim.set_paused(true);
        std::uint64_t target = config.corunner_warmup_ops;
        system.run_until([&system, &victim, target]() {
            std::uint64_t total = 0;
            for (auto &job : system.jobs()) {
                if (job.get() != &victim)
                    total += job->stats().ops.value();
            }
            return total >= target;
        });
        victim.set_paused(false);
        system.churn_tick();
    }

    // Phase A: the victim allocates its memory under full colocation —
    // this is where the allocation-order decisions are made. Sampled
    // frequently: partially-filled reservations peak mid-allocation.
    while (!victim.finished() && victim.workload().in_init_phase()) {
        std::uint64_t before = victim.stats().ops.value();
        system.run_until([&victim, before]() {
            return victim.finished() ||
                   !victim.workload().in_init_phase() ||
                   // Prime stride: never a multiple of the group size,
                   // so samples land inside partially-filled groups too.
                   victim.stats().ops.value() >= before + 4093;
        });
        sample_reservations();
        system.churn_tick();
    }

    if (config.stop_corunners_after_init) {
        for (auto &job : system.jobs()) {
            if (job.get() != &victim)
                job->set_paused(true);
        }
    }

    // Phase B: measure.
    if (!config.measure_init)
        system.reset_measurement();
    std::uint64_t remaining = config.measure_ops;
    // Churn events fire between chunks, so an armed plan shortens them to
    // keep boot/kill/fork timing close to the scheduled step counts.
    const std::uint64_t chunk_ops =
        system.churn_armed() ? 4096 : kReservationSampleOps;
    while (remaining > 0 && !victim.finished()) {
        std::uint64_t chunk = std::min(remaining, chunk_ops);
        std::uint64_t before = victim.stats().ops.value();
        system.run_ops(victim, chunk);
        std::uint64_t done = victim.stats().ops.value() - before;
        if (done == 0)
            break;  // victim finished mid-chunk
        remaining -= std::min(remaining, done);
        sample_reservations();
        system.churn_tick();
    }

    result.victim_cycles = victim.stats().cycles.value();
    result.victim_ops = victim.stats().ops.value();
    result.victim_rss_pages = victim.process().rss_pages();
    result.metrics = collect_metrics(system, victim);
    result.stats = system.stat_registry().snapshot();
    if (const host::VmInstance *vm0 = system.vm_if_alive(0)) {
        result.fragmentation =
            host_pt_fragmentation(victim.process(), *vm0);
    }

    if (core::PtemagnetProvider *provider = system.ptemagnet()) {
        result.reservations_created =
            provider->stats().reservations_created.value();
        result.part_hits = provider->stats().part_hits.value();
        result.buddy_calls = provider->stats().buddy_calls.value();
        result.fallback_singles =
            provider->stats().fallback_singles.value();
    } else {
        result.buddy_calls =
            system.guest().buddy().stats().alloc_calls.value();
    }

    result.provider_held_pages = system.guest().provider().held_frames();
    result.frames_reclaimed =
        system.guest().stats().frames_reclaimed.value();
    result.oom_events = system.guest().stats().oom_events.value();
    if (injector) {
        const InjectorStats &inj = injector->stats();
        result.fault_plan_armed = true;
        result.injected_denials = inj.injected_denials.value();
        result.pressure_episodes = inj.pressure_episodes.value();
        result.reclaim_sweeps = inj.reclaim_sweeps.value();
        // Only armed runs grow the metric set: the golden snapshot (and
        // its new-key guard) covers unarmed runs exactly as before.
        result.metrics.set("injected_denials",
                           static_cast<double>(result.injected_denials));
        result.metrics.set("pressure_episodes",
                           static_cast<double>(result.pressure_episodes));
        result.metrics.set("reclaim_sweeps",
                           static_cast<double>(result.reclaim_sweeps));
        result.metrics.set("frames_reclaimed",
                           static_cast<double>(result.frames_reclaimed));
        result.metrics.set("fallback_singles",
                           static_cast<double>(result.fallback_singles));
    }

    if (multi_vm) {
        const OvercommitStats &oc = system.overcommit_stats();
        result.host_reclaim_sweeps = oc.reclaim_sweeps.value();
        result.host_emergency_sweeps = oc.emergency_sweeps.value();
        result.host_backoff_waits = oc.backoff_waits.value();
        result.host_balloon_pages = oc.balloon_pages.value();
        result.host_frames_unbacked = oc.frames_unbacked.value();
        result.oom_kills = oc.oom_kills.value();
        result.churn_boots = oc.churn_boots.value();
        result.churn_kills = oc.churn_kills.value();
        result.churn_forks = oc.churn_forks.value();
        result.churn_boot_failures = oc.churn_boot_failures.value();

        for (unsigned k = 0; k < system.num_vms(); ++k) {
            const VmSlot &slot = system.vm_slot(k);
            VmRecord rec;
            rec.vm = k;
            rec.status = slot.status;
            rec.status_detail = slot.status_detail;
            rec.balloon_pages =
                slot.guest->stats().balloon_pages_taken.value();
            rec.frames_repossessed = slot.frames_repossessed;
            rec.backed_pages = slot.alive ? slot.vm->backed_pages()
                                          : slot.backed_pages_at_kill;
            rec.oom_events = slot.guest->stats().oom_events.value();
            if (const obs::DirtyRing *ring = system.dirty_ring(k);
                ring != nullptr && ring->has_estimate()) {
                rec.ws_estimate_pages = ring->estimate_pages();
            }
            for (const auto &job : system.jobs()) {
                if (job->vm_index() != k)
                    continue;
                rec.ops += job->stats().ops.value();
                rec.walk_cycles +=
                    job->walker().stats().walk_cycles.value();
            }
            result.vms.push_back(std::move(rec));
        }

        // Only armed runs grow the metric set (same contract as the
        // fault-plan block above): the golden snapshot and its new-key
        // guard keep covering unarmed single-VM runs unchanged.
        if (config.overcommit.armed() || config.churn.armed()) {
            result.metrics.set(
                "oom_kills", static_cast<double>(result.oom_kills));
            result.metrics.set(
                "host_reclaim_sweeps",
                static_cast<double>(result.host_reclaim_sweeps));
            result.metrics.set(
                "host_balloon_pages",
                static_cast<double>(result.host_balloon_pages));
            result.metrics.set(
                "host_frames_unbacked",
                static_cast<double>(result.host_frames_unbacked));
            result.metrics.set(
                "churn_boots",
                static_cast<double>(result.churn_boots));
        }
    }

    if (system.dirty_ring_armed()) {
        result.dirty_ring_armed = true;
        for (unsigned k = 0; k < system.num_vms(); ++k) {
            const obs::DirtyRing *ring = system.dirty_ring(k);
            if (ring == nullptr)
                continue;
            result.dirty_ring_logged += ring->stats().logged.value();
            result.dirty_ring_harvests += ring->stats().harvests.value();
            result.dirty_ring_epochs += ring->stats().epochs.value();
        }
        if (const obs::DirtyRing *ring = system.dirty_ring(0);
            ring != nullptr && ring->has_estimate()) {
            result.ws_estimate_pages = ring->estimate_pages();
        }
        result.ws_guided_sweeps =
            system.overcommit_stats().ws_guided_sweeps.value();
        // Armed-only metric growth, same contract as the fault-plan and
        // overcommit blocks: disarmed runs keep the golden metric set.
        result.metrics.set("dirty_ring_logged",
                           static_cast<double>(result.dirty_ring_logged));
        result.metrics.set("dirty_ring_epochs",
                           static_cast<double>(result.dirty_ring_epochs));
        result.metrics.set("ws_estimate_pages",
                           static_cast<double>(result.ws_estimate_pages));
        result.metrics.set("ws_guided_sweeps",
                           static_cast<double>(result.ws_guided_sweeps));
    }

    result.total_ops = system.total_steps();
    result.host_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    return result;
}

double
PairedResult::improvement_percent() const
{
    if (baseline.victim_cycles == 0)
        return 0.0;
    double base = static_cast<double>(baseline.victim_cycles);
    double ptm = static_cast<double>(ptemagnet.victim_cycles);
    return 100.0 * (base - ptm) / base;
}

PairedResult
run_paired(ScenarioConfig config)
{
    PairedResult result;
    result.baseline = run_scenario(baseline_leg(config));
    result.ptemagnet = run_scenario(treatment_leg(std::move(config)));
    return result;
}

ScenarioConfig
baseline_leg(ScenarioConfig config)
{
    config.policy_name = "buddy";
    return config;
}

ScenarioConfig
treatment_leg(ScenarioConfig config)
{
    if (config.resolved_policy() == "buddy")
        config.policy_name = "ptemagnet";
    return config;
}

double
geomean_improvement(const std::vector<double> &percents)
{
    if (percents.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double p : percents)
        log_sum += std::log(1.0 + p / 100.0);
    return 100.0 *
           (std::exp(log_sum / static_cast<double>(percents.size())) - 1.0);
}

}  // namespace ptm::sim
