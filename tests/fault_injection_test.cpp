/**
 * @file
 * Tests for the robustness layer: deterministic fault injection
 * (sim/fault_injection), graceful degradation under buddy exhaustion and
 * injected memory pressure, and the crash-isolated ExperimentSuite
 * driver (failed entries never perturb their siblings).
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/error.hpp"
#include "core/ptemagnet_provider.hpp"
#include "sim/suite.hpp"
#include "vm/guest_kernel.hpp"

namespace ptm::sim {
namespace {

// ---- FaultInjector unit behaviour ------------------------------------

TEST(FaultInjectorTest, DefaultPlanIsInert)
{
    FaultPlan plan;
    EXPECT_FALSE(plan.armed());
    EXPECT_TRUE(plan.deny_guest(0, 1).armed());
    EXPECT_TRUE(FaultPlan{}.periodic_pressure(100).armed());
    // A zero cadence adds nothing.
    EXPECT_FALSE(FaultPlan{}.periodic_pressure(0).armed());
}

TEST(FaultInjectorTest, GateDeniesExactlyTheConfiguredWindow)
{
    FaultPlan plan;
    plan.deny_guest(0, /*count=*/3, /*after=*/2);
    FaultInjector injector(plan);

    mem::BuddyAllocator buddy(0, 64);
    buddy.set_alloc_gate(injector.guest_gate());

    int denied = 0;
    for (int i = 0; i < 10; ++i) {
        if (!buddy.allocate_frame())
            ++denied;
    }
    EXPECT_EQ(denied, 3);
    EXPECT_EQ(injector.stats().injected_denials.value(), 3u);
    EXPECT_EQ(injector.stats().gate_calls.value(), 10u);
}

TEST(FaultInjectorTest, OrderFilterLeavesOtherOrdersAlone)
{
    FaultPlan plan;
    plan.deny_guest(/*order=*/3, /*count=*/1'000);
    FaultInjector injector(plan);

    mem::BuddyAllocator buddy(0, 64);
    buddy.set_alloc_gate(injector.guest_gate());

    EXPECT_FALSE(buddy.allocate(3).has_value());
    EXPECT_TRUE(buddy.allocate_frame().has_value());
    EXPECT_EQ(injector.stats().injected_denials.value(), 1u);
}

TEST(FaultInjectorTest, HostGateIsIndependentOfGuestGate)
{
    FaultPlan plan;
    plan.deny_host(0, /*count=*/1'000);
    FaultInjector injector(plan);

    mem::BuddyAllocator guest_buddy(0, 64);
    mem::BuddyAllocator host_buddy(0, 64);
    guest_buddy.set_alloc_gate(injector.guest_gate());
    host_buddy.set_alloc_gate(injector.host_gate());

    EXPECT_TRUE(guest_buddy.allocate_frame().has_value());
    EXPECT_FALSE(host_buddy.allocate_frame().has_value());
}

TEST(FaultInjectorTest, PressureEpisodeOpensSweepsAndCloses)
{
    FaultPlan plan;
    plan.pressure({.open_at_fault = 5,
                   .close_after = 6,
                   .sweep_period = 2,
                   .target_frames = 64});
    FaultInjector injector(plan);

    std::uint64_t sweeps = 0;
    for (int tick = 1; tick <= 20; ++tick) {
        if (std::uint64_t target = injector.pressure_tick()) {
            EXPECT_EQ(target, 64u);
            ++sweeps;
        }
    }
    // Opens at tick 5 (sweep), sweeps at ages 2 and 4, closes at age 6.
    EXPECT_EQ(sweeps, 3u);
    EXPECT_EQ(injector.stats().pressure_episodes.value(), 1u);
    EXPECT_EQ(injector.stats().reclaim_sweeps.value(), 3u);
}

TEST(FaultInjectorTest, ProbabilisticDenialsAreSeedDeterministic)
{
    FaultPlan plan;
    plan.deny_guest_probability(AllocDenyRule::kAnyOrder, 0.5);
    plan.with_seed(1234);

    auto denial_pattern = [&plan]() {
        FaultInjector injector(plan);
        mem::BuddyAllocator buddy(0, 1024);
        buddy.set_alloc_gate(injector.guest_gate());
        std::string pattern;
        for (int i = 0; i < 200; ++i)
            pattern += buddy.allocate_frame() ? '1' : '0';
        return pattern;
    };

    std::string first = denial_pattern();
    EXPECT_EQ(first, denial_pattern());
    EXPECT_NE(first.find('0'), std::string::npos);
    EXPECT_NE(first.find('1'), std::string::npos);

    plan.with_seed(99);
    EXPECT_NE(first, denial_pattern());
}

// ---- graceful degradation at the kernel level ------------------------

TEST(FaultInjectionKernelTest, PtemagnetFallsBackToSinglesUnderDenial)
{
    // Deny every order-3 (reservation-chunk) allocation: the provider
    // must degrade to single frames, not fail the faults.
    FaultPlan plan;
    plan.deny_guest(3, 1'000'000);
    FaultInjector injector(plan);

    vm::GuestKernel kernel(1024);
    auto provider =
        std::make_unique<core::PtemagnetProvider>(&kernel, 8);
    core::PtemagnetProvider *ptm = provider.get();
    kernel.set_provider(std::move(provider));
    kernel.buddy().set_alloc_gate(injector.guest_gate());

    vm::Process &proc = kernel.create_process("victim");
    Addr base = proc.vas().mmap(64 * kPageSize);
    std::uint64_t first = page_number(base);
    for (std::uint64_t i = 0; i < 64; ++i) {
        mmu::FaultOutcome out = kernel.handle_fault(proc, first + i);
        ASSERT_TRUE(out.ok) << "fault " << i << " failed";
    }

    EXPECT_EQ(ptm->stats().reservations_created.value(), 0u);
    EXPECT_EQ(ptm->stats().fallback_singles.value(), 64u);
    EXPECT_EQ(kernel.stats().oom_events.value(), 0u);
    EXPECT_GE(injector.stats().injected_denials.value(), 64u);
}

TEST(FaultInjectionKernelTest, ExhaustedGuestReportsOomWithoutAborting)
{
    // 64 frames cannot back a 256-page touch: the kernel must surface
    // the condition as a failed fault or a SimError — never abort.
    vm::GuestKernel kernel(64);
    vm::Process &proc = kernel.create_process("hog");
    Addr base = proc.vas().mmap(256 * kPageSize);
    std::uint64_t first = page_number(base);

    bool saw_oom = false;
    for (std::uint64_t i = 0; i < 256 && !saw_oom; ++i) {
        try {
            saw_oom = !kernel.handle_fault(proc, first + i).ok;
        } catch (const SimError &) {
            saw_oom = true;  // PT-node exhaustion path
        }
    }
    EXPECT_TRUE(saw_oom);
}

// ---- scenario-level robustness ---------------------------------------

ScenarioConfig
tiny_config()
{
    ScenarioConfig config = ScenarioConfig{}
                                .with_victim("pagerank")
                                .with_scale(0.05)
                                .with_measure_ops(10'000);
    config.platform.guest_frames = 16 * 1024;
    config.platform.host_frames = 24 * 1024;
    return config;
}

TEST(FaultInjectionScenarioTest, PressureDrivesReclaimAndRunCompletes)
{
    ScenarioResult run = run_scenario(
        ScenarioConfig(tiny_config())
            .with_ptemagnet()
            .with_fault_plan(FaultPlan{}.periodic_pressure(500)));

    EXPECT_TRUE(run.fault_plan_armed);
    EXPECT_GE(run.pressure_episodes, 1u);
    EXPECT_GT(run.reclaim_sweeps, 0u);
    EXPECT_GT(run.frames_reclaimed, 0u);
    EXPECT_EQ(run.oom_events, 0u);
    EXPECT_GE(run.victim_ops, 10'000u);
    // Armed runs export the robustness counters as metrics...
    EXPECT_TRUE(run.metrics.has("frames_reclaimed"));

    // ...unarmed runs must not (the golden metric snapshot covers them).
    ScenarioResult unarmed =
        run_scenario(ScenarioConfig(tiny_config()).with_ptemagnet());
    EXPECT_FALSE(unarmed.fault_plan_armed);
    EXPECT_FALSE(unarmed.metrics.has("frames_reclaimed"));
    EXPECT_FALSE(unarmed.metrics.has("injected_denials"));
}

TEST(FaultInjectionScenarioTest, DenialForcesFallbackWithoutFailure)
{
    ScenarioResult run = run_scenario(
        ScenarioConfig(tiny_config())
            .with_ptemagnet()
            .with_fault_plan(FaultPlan{}.deny_guest(3, 1'000'000)));

    EXPECT_GT(run.injected_denials, 0u);
    EXPECT_GT(run.fallback_singles, 0u);
    EXPECT_EQ(run.reservations_created, 0u);
    EXPECT_EQ(run.oom_events, 0u);
    EXPECT_GE(run.victim_ops, 10'000u);
}

TEST(FaultInjectionScenarioTest, BuddyBaselineOomThrowsSimError)
{
    // The stock buddy kernel has no reservations to fall back on: a
    // guest far too small for the workload must throw (recoverable),
    // never abort the process.
    ScenarioConfig doomed = tiny_config();
    doomed.platform.guest_frames = 512;
    EXPECT_THROW(run_scenario(doomed), SimError);
}

TEST(FaultInjectionScenarioTest, SamePlanSeedIsBitIdentical)
{
    // On either translation table an armed plan fires, the run
    // completes, and a repeat is bit-identical.
    for (const char *table : {"radix", "hashed"}) {
        SCOPED_TRACE(table);
        ScenarioConfig config =
            ScenarioConfig(tiny_config())
                .with_ptemagnet()
                .with_table(table)
                .with_fault_plan(FaultPlan{}
                                     .with_seed(77)
                                     .deny_guest_probability(3, 0.3)
                                     .periodic_pressure(700));
        ScenarioResult first = run_scenario(config);
        ScenarioResult second = run_scenario(config);
        EXPECT_TRUE(same_simulation(first, second));
        EXPECT_GT(first.injected_denials, 0u);
        EXPECT_GT(first.pressure_episodes, 0u);
        EXPECT_GE(first.victim_ops, 10'000u);
    }
}

// ---- crash-isolated suite driver -------------------------------------

SuiteOptions
quiet(unsigned threads)
{
    SuiteOptions options;
    options.threads = threads;
    options.write_json = false;
    options.announce = false;
    return options;
}

ScenarioConfig
doomed_config()
{
    ScenarioConfig config = tiny_config();
    config.platform.guest_frames = 512;
    return config;
}

TEST(SuiteIsolationTest, FailedEntryLeavesSiblingsBitIdentical)
{
    ExperimentSuite with_failure("isolation");
    with_failure.add("alpha", tiny_config());
    with_failure.add("doomed", doomed_config(), RunKind::Single);
    with_failure.add("omega",
                     ScenarioConfig(tiny_config()).with_ptemagnet(),
                     RunKind::Single);

    ExperimentSuite control("control");
    control.add("alpha", tiny_config());
    control.add("omega",
                ScenarioConfig(tiny_config()).with_ptemagnet(),
                RunKind::Single);

    SuiteResult failed_run = with_failure.run(quiet(4));
    SuiteResult control_run = control.run(quiet(4));

    const EntryResult &doomed = failed_run.at("doomed");
    EXPECT_TRUE(doomed.failed());
    EXPECT_EQ(doomed.status, EntryStatus::Failed);
    EXPECT_NE(doomed.error.find("OOM"), std::string::npos)
        << doomed.error;
    ASSERT_EQ(doomed.leg_errors.size(), 1u);
    EXPECT_EQ(doomed.leg_errors.front(), doomed.error);
    EXPECT_EQ(failed_run.failed_count(), 1u);

    // Siblings are untouched by the failure.
    EXPECT_TRUE(same_simulation(failed_run.at("alpha").paired.baseline,
                                control_run.at("alpha").paired.baseline));
    EXPECT_TRUE(same_simulation(failed_run.at("alpha").paired.ptemagnet,
                                control_run.at("alpha").paired.ptemagnet));
    EXPECT_TRUE(same_simulation(failed_run.at("omega").single,
                                control_run.at("omega").single));
    EXPECT_FALSE(failed_run.at("alpha").failed());
    EXPECT_FALSE(failed_run.at("omega").failed());

    // Failed entries drop out of the summary statistics.
    EXPECT_EQ(failed_run.improvements().size(), 1u);
    EXPECT_EQ(failed_run.geomean(), control_run.geomean());
}

TEST(SuiteIsolationTest, ArmedSuiteIsBitIdenticalAcrossThreadCounts)
{
    auto build = []() {
        ExperimentSuite suite("armed_determinism");
        suite.sweep("pagerank", "pressure_every", {0, 2'000, 500},
                    ScenarioConfig{}
                        .with_victim("pagerank")
                        .with_scale(0.05)
                        .with_measure_ops(8'000)
                        .with_ptemagnet(),
                    RunKind::Single);
        return suite;
    };

    SuiteResult serial = build().run(quiet(1));
    SuiteResult parallel = build().run(quiet(4));

    ASSERT_EQ(serial.entries().size(), 3u);
    ASSERT_EQ(parallel.entries().size(), 3u);
    for (std::size_t i = 0; i < serial.entries().size(); ++i) {
        EXPECT_FALSE(serial.entries()[i].failed());
        EXPECT_TRUE(same_simulation(serial.entries()[i].single,
                                    parallel.entries()[i].single));
    }
    // The armed legs actually exercised the pressure machinery.
    EXPECT_GT(serial.at("pagerank/pressure_every=500")
                  .single.frames_reclaimed,
              0u);
    EXPECT_EQ(serial.at("pagerank/pressure_every=0")
                  .single.pressure_episodes,
              0u);
}

}  // namespace
}  // namespace ptm::sim
