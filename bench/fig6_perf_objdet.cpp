/**
 * @file
 * Reproduces Figure 6 (§6.1): performance improvement of PTEMagnet over
 * the default kernel for the eight benchmarks colocated with 8-threaded
 * objdet (the co-runner with the highest page-fault rate), plus the
 * geomean bar.
 *
 * Paper: +4% on average, up to +9% (xz); no benchmark ever slows down.
 */
#include <cstdio>

#include "sim/suite.hpp"
#include "workload/catalog.hpp"

int
main()
{
    using namespace ptm::sim;

    ExperimentSuite suite("fig6_perf_objdet");
    for (const std::string &name : ptm::workload::benchmark_names()) {
        suite.add(name, ScenarioConfig{}
                            .with_victim(name)
                            .with_corunner_preset("objdet8")
                            .with_scale(0.5)
                            .with_measure_ops(600'000));
    }
    SuiteResult result = suite.run();

    std::printf("Figure 6: performance improvement under colocation with "
                "objdet\n");
    print_improvement_table(result);
    std::printf("\npaper reference: 4%% average, 9%% max (xz), never "
                "negative.\n");
    return result.failed_count() == 0 ? 0 : 1;
}
