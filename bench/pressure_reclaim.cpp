/**
 * @file
 * Memory-pressure reclaim sweep (extends §6.2 / §4.3): how PTEMagnet
 * behaves when the reclamation daemon keeps shooting down its parked
 * reservations.
 *
 * The sweep arms a periodic FaultPlan pressure episode — one reclaim
 * sweep every `pressure_every` handled guest faults, with 0 as the
 * unarmed control — and reports, per intensity: frames reclaimed,
 * sweeps executed, single-frame fallbacks the provider was forced into,
 * and the execution-time improvement that survives. The paper's claim is
 * qualitative: reservations are short-lived (§6.2), so even aggressive
 * reclamation mostly finds nothing to take and PTEMagnet degrades toward
 * the buddy baseline instead of breaking.
 */
#include <cstdio>

#include "sim/suite.hpp"

int
main()
{
    using namespace ptm::sim;

    ScenarioConfig base = ScenarioConfig{}
                              .with_victim("pagerank")
                              .with_corunner_preset("objdet8")
                              .with_scale(0.5)
                              .with_measure_ops(400'000);

    ExperimentSuite suite("pressure_reclaim");
    // Intensity axis, most to least relaxed; 0 = no injected pressure.
    suite.sweep("pagerank", "pressure_every",
                {0, 50'000, 20'000, 5'000, 1'000}, base);

    // Co-residency axis: the same pressured victim with 1 vs 4 VMs
    // sharing the host buddy. Extra guests fragment host PT allocation
    // between sweeps, so this isolates how much of the reclaim cost is
    // the victim's own versus inter-VM interference.
    ScenarioConfig colocated = ScenarioConfig(base).with_fault_plan(
        FaultPlan{}.periodic_pressure(5'000));
    suite.sweep("pagerank_pressured", "vms", {1, 4}, colocated);

    SuiteResult result = suite.run();

    std::printf("Memory-pressure reclaim sweep (pagerank + objdet8)\n");
    std::printf("%-26s %10s %8s %10s %10s %12s\n", "entry", "reclaimed",
                "sweeps", "fallbacks", "PaRT hits", "improvement");
    for (const EntryResult &entry : result.entries()) {
        if (entry.failed()) {
            std::printf("%-26s %10s %8s %10s %10s %12s\n",
                        entry.entry.name.c_str(), "-", "-", "-", "-",
                        "FAILED");
            continue;
        }
        const ScenarioResult &run = entry.paired.ptemagnet;
        std::printf("%-26s %10llu %8llu %10llu %10llu %+11.1f%%\n",
                    entry.entry.name.c_str(),
                    static_cast<unsigned long long>(run.frames_reclaimed),
                    static_cast<unsigned long long>(run.reclaim_sweeps),
                    static_cast<unsigned long long>(run.fallback_singles),
                    static_cast<unsigned long long>(run.part_hits),
                    entry.improvement_percent());
    }

    std::printf("\nexpectation: reclaimed frames stay small relative to "
                "RSS (reservations are\nshort-lived, §6.2) and the "
                "improvement decays gracefully with intensity —\n"
                "fallback singles replace reservations, never failed "
                "faults.\n");
    return result.failed_count() == 0 ? 0 : 1;
}
