/**
 * @file
 * Reproduces Table 4 (§6.3): hardware-counter changes for pagerank
 * colocated with objdet, PTEMagnet vs default kernel. Unlike Table 1,
 * the co-runner keeps running through the whole measurement.
 *
 * Paper: host PT fragmentation -66% (3.4 -> 1.2), execution time -7%,
 * page walk cycles -17%, host-PT traversal cycles -26%, guest-PT
 * accesses from memory -1%, host-PT accesses from memory -13%.
 */
#include <cstdio>

#include "sim/suite.hpp"

int
main()
{
    using namespace ptm::sim;

    ExperimentSuite suite("table4_pagerank_metrics");
    suite.add("pagerank", ScenarioConfig{}
                              .with_victim("pagerank")
                              .with_corunner_preset("objdet8")
                              .with_scale(0.5)
                              .with_measure_ops(600'000));
    SuiteResult result = suite.run();
    const PairedResult &pair = result.at("pagerank").paired;

    std::printf("Table 4: pagerank + objdet, PTEMagnet vs default "
                "kernel (co-runner active throughout)\n\n");

    ptm::MetricSet::print_change_table(pair.baseline.metrics,
                                  pair.ptemagnet.metrics,
                                  "metric changes delivered by PTEMagnet:");

    std::printf("\nhost PT fragmentation: %.2f -> %.2f   "
                "[paper: 3.4 -> 1.2, -66%%]\n",
                pair.baseline.fragmentation.average_hpte_lines,
                pair.ptemagnet.fragmentation.average_hpte_lines);
    std::printf("execution time improvement: %.1f%%   [paper: 7%%]\n",
                pair.improvement_percent());
    std::printf("\npaper reference deltas: exec -7%%, PW cycles -17%%, "
                "host-PT cycles -26%%,\n  guest-PT-from-memory -1%%, "
                "host-PT-from-memory -13%%\n");
    return result.failed_count() == 0 ? 0 : 1;
}
