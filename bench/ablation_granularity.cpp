/**
 * @file
 * Ablation (DESIGN.md §7): reservation granularity. The paper fixes the
 * reservation at 8 pages because a 64-byte cache line holds exactly 8
 * PTEs; this bench sweeps 2/4/8/16/32-page reservations to show that 8
 * captures nearly all of the benefit — smaller groups leave hPTE lines
 * fragmented, larger groups add no further packing (one line is already
 * perfectly packed) while inflating reserved-but-unused memory.
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

    ExperimentSuite suite("ablation_granularity");
    suite.add("baseline", base, RunKind::Single);
    suite.sweep("pagerank", "reservation_pages", {2, 4, 8, 16, 32},
                ScenarioConfig(base).with_ptemagnet(), RunKind::Single);
    SuiteResult result = suite.run();

    std::printf("Ablation: reservation granularity (pagerank + objdet)\n");
    std::printf("%-12s %12s %14s %18s\n", "group pages", "frag",
                "improvement", "peak unused/RSS");

    const ScenarioResult &baseline = result.at("baseline").single;
    double base_cycles = static_cast<double>(baseline.victim_cycles);
    for (const EntryResult &entry : result.entries()) {
        if (entry.entry.sweep_param.empty())
            continue;
        const ScenarioResult &run = entry.single;
        double ptm_cycles = static_cast<double>(run.victim_cycles);
        std::printf("%-12u %12.2f %+13.1f%% %17.3f%%\n",
                    static_cast<unsigned>(entry.entry.sweep_value),
                    run.fragmentation.average_hpte_lines,
                    100.0 * (base_cycles - ptm_cycles) / base_cycles,
                    100.0 * run.peak_unused_reservation_fraction);
    }

    std::printf("\n(default kernel fragmentation: %.2f; the paper's "
                "design point is 8 pages = one\nPTE cache line — larger "
                "groups cannot pack a line any tighter.)\n",
                baseline.fragmentation.average_hpte_lines);
    return result.failed_count() == 0 ? 0 : 1;
}
