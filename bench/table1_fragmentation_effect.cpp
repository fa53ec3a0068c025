/**
 * @file
 * Reproduces Table 1 (§3.3): the effect of host-PT fragmentation on
 * pagerank, measured by colocating it with a 12-worker stress-ng whose
 * only job is to interleave page faults with pagerank's allocation
 * phase. Per the paper's protocol the co-runner is *stopped* once
 * pagerank finishes allocating, so the measured delta is attributable to
 * fragmentation alone, not to cache contention.
 *
 * Paper (colocation vs standalone, default kernel):
 *   execution time +11%, cache misses <1%, TLB misses <1%,
 *   page walk cycles +61%, host-PT traversal cycles +117%,
 *   guest-PT accesses from memory +3%, host-PT from memory +283%,
 *   host PT fragmentation +242% (2.8 -> 6.8).
 */
#include <cstdio>

#include "sim/suite.hpp"

int
main()
{
    using namespace ptm::sim;

    ScenarioConfig base = ScenarioConfig{}
                              .with_victim("pagerank")
                              .with_scale(0.5)
                              .with_measure_ops(600'000)
                              .with_stop_corunners_after_init();

    ExperimentSuite suite("table1_fragmentation_effect");
    // Standalone: pagerank has the allocator to itself.
    suite.add("standalone", base, RunKind::Single);
    // Colocation: 12 stress-ng workers churn memory during allocation.
    suite.add("colocated",
              ScenarioConfig(base).with_corunner_preset("stressng12"),
              RunKind::Single);
    SuiteResult result = suite.run();

    const ScenarioResult &standalone = result.at("standalone").single;
    const ScenarioResult &colocated = result.at("colocated").single;

    std::printf("Table 1: pagerank colocated with stress-ng (12 workers) "
                "vs standalone\n");
    std::printf("(co-runner stopped after pagerank's allocation phase; "
                "default kernel in both runs)\n\n");

    ptm::MetricSet::print_change_table(standalone.metrics, colocated.metrics,
                                  "metric changes caused by fragmentation "
                                  "(colocated vs standalone):");

    std::printf("\nhost PT fragmentation: %.2f (standalone) -> %.2f "
                "(colocated)   [paper: 2.8 -> 6.8]\n",
                standalone.fragmentation.average_hpte_lines,
                colocated.fragmentation.average_hpte_lines);
    std::printf("fraction of 8-page groups fragmented: %.0f%%   "
                "[paper: 63%% scattered to 8 blocks]\n",
                100.0 * colocated.fragmentation.fragmented_fraction);
    std::printf("\npaper reference deltas: exec +11%%, PW cycles +61%%, "
                "host-PT cycles +117%%,\n  guest-PT-from-memory +3%%, "
                "host-PT-from-memory +283%%, cache/TLB misses <1%%\n");
    return result.failed_count() == 0 ? 0 : 1;
}
