/**
 * @file
 * Reproduces Figure 7 (§6.1): performance improvement of PTEMagnet when
 * each benchmark shares the VM with the full combination of Table 3
 * co-runners (objdet, chameleon, pyaes, json_serdes, rnn_serving, gcc,
 * xz). The heavier cache contention erodes about 1% of the improvement
 * relative to Figure 6.
 *
 * Paper: +3% on average, up to +5% (mcf); never negative.
 */
#include <cstdio>

#include "sim/suite.hpp"
#include "workload/catalog.hpp"

int
main()
{
    using namespace ptm::sim;

    ExperimentSuite suite("fig7_perf_combo");
    for (const std::string &name : ptm::workload::benchmark_names()) {
        suite.add(name, ScenarioConfig{}
                            .with_victim(name)
                            .with_corunner_preset("combo")
                            .with_scale(0.5)
                            .with_measure_ops(600'000));
    }
    SuiteResult result = suite.run();

    std::printf("Figure 7: performance improvement under colocation with "
                "a combination of co-runners\n");
    print_improvement_table(result);
    std::printf("\npaper reference: 3%% average, 5%% max (mcf), never "
                "negative.\n");
    return result.failed_count() == 0 ? 0 : 1;
}
