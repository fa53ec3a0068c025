/**
 * @file
 * Reproduces Figure 5 (§6.1): host page-table fragmentation of the eight
 * evaluated benchmarks colocated with 8-threaded objdet, with the default
 * kernel and with PTEMagnet. Lower is better; PTEMagnet should drive the
 * metric to almost exactly 1 for every benchmark.
 */
#include <cstdio>

#include "sim/suite.hpp"
#include "workload/catalog.hpp"

int
main()
{
    using namespace ptm::sim;

    ExperimentSuite suite("fig5_host_pt_fragmentation");
    for (const std::string &name : ptm::workload::benchmark_names()) {
        suite.add(name, ScenarioConfig{}
                            .with_victim(name)
                            .with_corunner_preset("objdet8")
                            .with_scale(0.5)
                            .with_measure_ops(300'000));
    }
    SuiteResult result = suite.run();

    std::printf("Figure 5: host PT fragmentation in colocation with "
                "objdet (lower is better)\n");
    std::printf("%-10s %12s %12s\n", "benchmark", "default", "ptemagnet");
    for (const EntryResult &entry : result.entries()) {
        std::printf("%-10s %12.2f %12.2f\n", entry.entry.name.c_str(),
                    entry.paired.baseline.fragmentation.average_hpte_lines,
                    entry.paired.ptemagnet.fragmentation
                        .average_hpte_lines);
    }
    std::printf("\npaper reference: PTEMagnet reduces fragmentation to "
                "~1 for all benchmarks\n(e.g. pagerank 3.4 -> 1.2, "
                "Table 4).\n");
    return result.failed_count() == 0 ? 0 : 1;
}
