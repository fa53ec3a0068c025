/**
 * @file
 * Multi-VM host tests: frame repossession after a VM kill, survivor
 * isolation, and the overcommit survival ladder (balloon sweeps, backoff,
 * deterministic OOM-kill) through sim::System.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "host/host_kernel.hpp"
#include "mem/buddy_allocator.hpp"
#include "sim/experiment.hpp"
#include "sim/overcommit.hpp"
#include "sim/system.hpp"
#include "workload/catalog.hpp"

namespace ptm::sim {
namespace {

TEST(MultiVmHost, KilledVmFramesMergeBackAndSurvivorsKeepMappings)
{
    host::HostKernel host(64 * 1024);
    std::vector<host::VmInstance *> vms;
    for (int i = 0; i < 4; ++i)
        vms.push_back(&host.create_vm());

    // Interleave contiguous 64-gfn runs across the four VMs so each VM's
    // data frames land in chunks separated by the other VMs' chunks —
    // the inter-VM fragmentation pattern a churny host produces.
    for (unsigned round = 0; round < 8; ++round) {
        for (host::VmInstance *vm : vms) {
            for (unsigned i = 0; i < 64; ++i) {
                ASSERT_TRUE(host.handle_fault(*vm, round * 64 + i).ok);
            }
        }
    }

    // Record every survivor mapping before the kill.
    std::map<std::pair<std::int32_t, std::uint64_t>, std::uint64_t> before;
    for (unsigned v = 0; v < 4; ++v) {
        if (v == 1)
            continue;
        for (std::uint64_t gfn = 0; gfn < 8 * 64; ++gfn) {
            auto pte = vms[v]->page_table().lookup(gfn);
            ASSERT_TRUE(pte.has_value());
            before[{vms[v]->id(), gfn}] = pte->frame();
        }
    }

    std::vector<std::size_t> blocks_before;
    for (unsigned o = 0; o <= mem::BuddyAllocator::kMaxOrder; ++o)
        blocks_before.push_back(host.buddy().free_blocks_at_order(o));
    const std::uint64_t free_before = host.buddy().free_frames_count();

    const std::uint64_t repossessed = host.destroy_vm(*vms[1]);
    host.buddy().check_invariants();

    // All of the killed VM's frames came back: 512 data frames plus its
    // page-table nodes.
    EXPECT_GE(repossessed, 8 * 64u);
    EXPECT_EQ(host.buddy().free_frames_count(), free_before + repossessed);
    EXPECT_EQ(host.stats().vms_destroyed.value(), 1u);
    EXPECT_EQ(host.live_vm_count(), 3u);

    // The freed frames merged: each contiguous 64-frame run must contain
    // at least one aligned order>=3 block, so high-order free blocks
    // appear where there were none.
    std::uint64_t delta_frames = 0;
    bool merged_high_order = false;
    for (unsigned o = 0; o <= mem::BuddyAllocator::kMaxOrder; ++o) {
        std::size_t now = host.buddy().free_blocks_at_order(o);
        if (now > blocks_before[o]) {
            delta_frames +=
                static_cast<std::uint64_t>(now - blocks_before[o]) << o;
            if (o >= 3)
                merged_high_order = true;
        }
    }
    EXPECT_GE(delta_frames, repossessed);
    EXPECT_TRUE(merged_high_order);

    // Survivors are untouched: identical frames, still owned. vms[1] is
    // destroyed, so it is skipped rather than dereferenced.
    for (const auto &[key, frame] : before) {
        const auto &[vm_id, gfn] = key;
        for (unsigned v = 0; v < 4; ++v) {
            if (v == 1 || vms[v]->id() != vm_id)
                continue;
            host::VmInstance *vm = vms[v];
            auto pte = vm->page_table().lookup(gfn);
            ASSERT_TRUE(pte.has_value());
            EXPECT_EQ(pte->frame(), frame);
            EXPECT_EQ(host.memory().info(frame).owner(), vm_id);
        }
    }

    // The host keeps servicing survivors (and reuses repossessed frames).
    EXPECT_TRUE(host.handle_fault(*vms[0], 100'000).ok);
}

struct OomRunSummary {
    std::uint64_t oom_kills = 0;
    std::uint64_t reclaim_sweeps = 0;
    std::uint64_t balloon_pages = 0;
    std::vector<std::string> statuses;
    std::vector<std::uint64_t> job_cycles;
};

OomRunSummary
run_oom_scenario()
{
    PlatformConfig platform;
    platform.guest_frames = 4096;
    // Far less than four VMs' combined footprint: the survival ladder
    // must engage and kill at least one VM.
    platform.host_frames = 3072;

    System system(platform, 4);
    for (unsigned k = 1; k < 4; ++k)
        system.boot_vm();
    system.set_overcommit(OvercommitPolicy{}
                              .with_watermarks(64, 128)
                              .with_balloon_step(64)
                              .with_backoff(4, 32));
    for (unsigned k = 0; k < 4; ++k) {
        workload::WorkloadOptions options;
        options.scale = 1.0;
        options.seed = 77 + k;
        options.total_ops = 50'000;
        system.add_job(k, workload::make_workload("xalancbmk", options));
    }
    system.run_until([]() { return false; });  // until all jobs finish

    OomRunSummary summary;
    summary.oom_kills = system.overcommit_stats().oom_kills.value();
    summary.reclaim_sweeps =
        system.overcommit_stats().reclaim_sweeps.value();
    summary.balloon_pages =
        system.overcommit_stats().balloon_pages.value();
    for (unsigned k = 0; k < system.num_vms(); ++k)
        summary.statuses.push_back(system.vm_slot(k).status);
    for (const auto &job : system.jobs())
        summary.job_cycles.push_back(job->stats().cycles.value());
    return summary;
}

TEST(MultiVmSystem, OvercommitSurvivesViaDeterministicOomKill)
{
    OomRunSummary run = run_oom_scenario();

    // The run completed (no SimError escaped) and the ladder engaged.
    EXPECT_GE(run.oom_kills, 1u);
    EXPECT_GE(run.reclaim_sweeps, 1u);
    EXPECT_EQ(run.statuses.size(), 4u);
    // VM 0 is protected by default; some other VM was the victim.
    EXPECT_EQ(run.statuses[0], "alive");
    unsigned killed = 0;
    for (unsigned k = 1; k < 4; ++k)
        killed += run.statuses[k] == "oom_killed" ? 1 : 0;
    EXPECT_EQ(killed, run.oom_kills);

    // Bit-identical on repeat: same kills, same victims, same cycles.
    OomRunSummary again = run_oom_scenario();
    EXPECT_EQ(again.oom_kills, run.oom_kills);
    EXPECT_EQ(again.statuses, run.statuses);
    EXPECT_EQ(again.job_cycles, run.job_cycles);
    EXPECT_EQ(again.balloon_pages, run.balloon_pages);
}

TEST(MultiVmSystem, KillVmReturnsCoresForChurnReuse)
{
    PlatformConfig platform;
    platform.guest_frames = 4096;
    platform.host_frames = 32 * 1024;

    System system(platform, 2);
    unsigned second = system.boot_vm();
    workload::WorkloadOptions options;
    options.scale = 0.05;
    options.total_ops = 2'000;
    system.add_job(0, workload::make_workload("stress-ng", options));
    system.add_job(second,
                   workload::make_workload("stress-ng", options));
    EXPECT_FALSE(system.has_free_core());

    system.kill_vm(second, "churn_killed", "test kill");
    EXPECT_FALSE(system.vm_alive(second));
    EXPECT_EQ(system.vm_slot(second).status, "churn_killed");
    EXPECT_GT(system.vm_slot(second).frames_repossessed, 0u);
    EXPECT_TRUE(system.has_free_core());

    // A freshly booted VM reuses the released core and runs to the end.
    unsigned third = system.boot_vm();
    Job &job = system.add_job(
        third, workload::make_workload("stress-ng", options));
    system.run_until([]() { return false; });
    EXPECT_TRUE(job.finished());
    EXPECT_GT(job.stats().ops.value(), 0u);
    // The reused core keeps registry paths unique: the new job's stats
    // live under the new VM's namespace.
    EXPECT_EQ(job.stat_prefix().rfind("vm2.core", 0), 0u);
}

TEST(MultiVmScenario, ChurnStormRunsDeterministically)
{
    ScenarioConfig config;
    config.victim = "stress-ng";
    config.scale = 0.3;
    config.measure_ops = 30'000;
    config.corunner_warmup_ops = 0;
    config.platform.guest_frames = 4096;
    config.platform.host_frames = 24 * 1024;
    config.overcommit = OvercommitPolicy{}
                            .with_watermarks(128, 256)
                            .with_balloon_step(64)
                            .with_backoff(4, 64);
    config.churn = ChurnPlan::storm(/*seed=*/9, /*begin_step=*/500,
                                    /*end_step=*/20'000, /*boots=*/6,
                                    /*kills=*/3, /*forks=*/2)
                       .with_scale(0.1)
                       .with_guest_frames(2048);

    ScenarioResult a = run_scenario(config);
    ScenarioResult b = run_scenario(config);

    EXPECT_GT(a.churn_boots, 0u);
    EXPECT_EQ(a.vms.size(), static_cast<std::size_t>(1 + a.churn_boots));
    EXPECT_EQ(a.churn_boots, b.churn_boots);
    EXPECT_EQ(a.churn_kills, b.churn_kills);
    EXPECT_EQ(a.churn_forks, b.churn_forks);
    EXPECT_EQ(a.oom_kills, b.oom_kills);
    EXPECT_EQ(a.victim_cycles, b.victim_cycles);
    EXPECT_EQ(a.host_reclaim_sweeps, b.host_reclaim_sweeps);
    ASSERT_EQ(a.vms.size(), b.vms.size());
    for (std::size_t i = 0; i < a.vms.size(); ++i) {
        EXPECT_EQ(a.vms[i].status, b.vms[i].status);
        EXPECT_EQ(a.vms[i].ops, b.vms[i].ops);
        EXPECT_EQ(a.vms[i].walk_cycles, b.vms[i].walk_cycles);
        EXPECT_EQ(a.vms[i].backed_pages, b.vms[i].backed_pages);
    }
    // Churn-killed VMs carry their degradation record.
    if (a.churn_kills > 0) {
        unsigned churn_killed = 0;
        for (const VmRecord &rec : a.vms)
            churn_killed += rec.status == "churn_killed" ? 1 : 0;
        EXPECT_EQ(churn_killed, a.churn_kills);
    }
}

struct WsReclaimOutcome {
    std::vector<std::uint64_t> balloon_pages;  // per VM, guest frames taken
    std::vector<std::uint64_t> ws_estimate;    // per VM, last closed epoch
    std::uint64_t ws_guided_sweeps = 0;
    std::uint64_t reclaim_sweeps = 0;
};

/**
 * Three VMs under an armed dirty ring: VM 0 runs a hot in-place writer
 * (plus a late-starting job to generate armed host faults), VM 1 runs a
 * touch-then-free churner that finishes and goes idle with a large
 * backed-but-free surplus, VM 2 runs another hot writer. When the
 * reclaim daemon arms mid-run, a ws-guided sweep must balloon the idle
 * VM 1 — not the lower-indexed hot VM 0 that the historic index-order
 * sweep would hit first.
 */
WsReclaimOutcome
run_ws_reclaim(bool reclaim_by_ws)
{
    PlatformConfig platform;
    platform.guest_frames = 4096;
    platform.host_frames = 32 * 1024;

    System system(platform, 4);
    for (unsigned k = 1; k < 3; ++k)
        system.boot_vm();
    system.arm_dirty_ring(DirtyRingConfig{}
                              .with_ring_entries(256)
                              .with_epoch_ops(2048)
                              .with_reclaim_by_ws(reclaim_by_ws));

    auto hot_options = [](std::uint64_t seed) {
        workload::WorkloadOptions options;
        options.seed = seed;
        options.params.set("heap_mb", 4.0);
        options.params.set("hot_pages", 256.0);
        return options;
    };
    Job &hot0 = system.add_job(
        0, workload::make_workload("ws_estimate", hot_options(11)));
    system.add_job(
        2, workload::make_workload("ws_estimate", hot_options(13)));

    workload::WorkloadOptions churny;
    churny.seed = 12;
    churny.scale = 1.0;
    churny.total_ops = 25'000;
    Job &idle1 =
        system.add_job(1, workload::make_workload("stress-ng", churny));

    // The fault source: paused through the warm phases, its init sweep
    // later faults fresh pages so the armed daemon actually ticks.
    workload::WorkloadOptions late_options = hot_options(14);
    late_options.params.set("heap_mb", 8.0);
    Job &late = system.add_job(
        0, workload::make_workload("ws_estimate", late_options));
    late.set_paused(true);

    // Phase 1: VM 1 churns through its footprint, then finishes.
    system.run_until([&idle1]() { return idle1.finished(); });
    system.churn_tick();
    // Phase 2: epochs close while VM 1 stays idle — its estimate decays
    // to zero, the hot VMs keep logging their working sets.
    for (int i = 0; i < 3; ++i) {
        system.run_ops(hot0, 3'000);
        system.churn_tick();
    }

    // Phase 3: arm the daemon just above the current free-frame level,
    // then let the late job's init faults drive it below the watermark.
    const std::uint64_t free_now =
        system.host().buddy().free_frames_count();
    system.set_overcommit(OvercommitPolicy{}
                              .with_watermarks(free_now + 8, free_now + 40)
                              .with_balloon_step(128)
                              .with_backoff(1, 4)
                              .with_oom_kill(false));
    late.set_paused(false);
    // A short window: a couple of sweeps, well within the idle VM's
    // backed-but-free surplus, so victim selection (not exhaustion)
    // decides who gets ballooned.
    system.run_ops(late, 64);

    WsReclaimOutcome outcome;
    for (unsigned k = 0; k < system.num_vms(); ++k) {
        outcome.balloon_pages.push_back(
            system.guest(k).stats().balloon_pages_taken.value());
        const obs::DirtyRing *ring = system.dirty_ring(k);
        outcome.ws_estimate.push_back(
            ring != nullptr && ring->has_estimate()
                ? ring->estimate_pages()
                : 0);
    }
    outcome.ws_guided_sweeps =
        system.overcommit_stats().ws_guided_sweeps.value();
    outcome.reclaim_sweeps =
        system.overcommit_stats().reclaim_sweeps.value();
    return outcome;
}

TEST(MultiVmSystem, WsEstimateGuidesReclaimTowardIdleVms)
{
    WsReclaimOutcome guided = run_ws_reclaim(/*reclaim_by_ws=*/true);
    ASSERT_EQ(guided.balloon_pages.size(), 3u);
    EXPECT_GE(guided.reclaim_sweeps, 1u);
    EXPECT_GE(guided.ws_guided_sweeps, 1u);
    EXPECT_EQ(guided.ws_guided_sweeps, guided.reclaim_sweeps);

    // The idle VM went cold (estimate ~0) while the hot VMs kept
    // logging their working sets.
    EXPECT_LT(guided.ws_estimate[1], guided.ws_estimate[0]);
    EXPECT_LT(guided.ws_estimate[1], guided.ws_estimate[2]);

    // Victim selection: every balloon visit went to the idle VM; the
    // hot VMs — including lower-indexed VM 0, which the historic
    // index-order sweep would visit first — were never touched.
    EXPECT_GT(guided.balloon_pages[1], 0u);
    EXPECT_EQ(guided.balloon_pages[0], 0u);
    EXPECT_EQ(guided.balloon_pages[2], 0u);

    // Control: the same scenario with guidance off sweeps in slot
    // order, ballooning hot VM 0 first on every sweep.
    WsReclaimOutcome indexed = run_ws_reclaim(/*reclaim_by_ws=*/false);
    EXPECT_EQ(indexed.ws_guided_sweeps, 0u);
    EXPECT_GE(indexed.reclaim_sweeps, 1u);
    EXPECT_GT(indexed.balloon_pages[0], 0u);
    EXPECT_GE(indexed.balloon_pages[0], indexed.balloon_pages[1]);

    // Deterministic: a guided repeat reproduces every number.
    WsReclaimOutcome again = run_ws_reclaim(/*reclaim_by_ws=*/true);
    EXPECT_EQ(again.balloon_pages, guided.balloon_pages);
    EXPECT_EQ(again.ws_estimate, guided.ws_estimate);
    EXPECT_EQ(again.ws_guided_sweeps, guided.ws_guided_sweeps);
    EXPECT_EQ(again.reclaim_sweeps, guided.reclaim_sweeps);
}

}  // namespace
}  // namespace ptm::sim
