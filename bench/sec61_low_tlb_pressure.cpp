/**
 * @file
 * Reproduces the unnumbered §6.1 result: on SPEC'17 Int applications
 * that exhibit little TLB pressure, PTEMagnet delivers only 0-1%
 * improvement — and, critically for cloud deployment, *never* a
 * slowdown. This is the "overhead-free" property that lets PTEMagnet be
 * enabled unconditionally.
 */
#include <cstdio>

#include "sim/suite.hpp"
#include "workload/catalog.hpp"

int
main()
{
    using namespace ptm::sim;

    ExperimentSuite suite("sec61_low_tlb_pressure");
    for (const std::string &name : ptm::workload::low_pressure_names()) {
        suite.add(name, ScenarioConfig{}
                            .with_victim(name)
                            .with_corunner_preset("objdet8")
                            .with_scale(0.5)
                            .with_measure_ops(400'000));
    }
    SuiteResult result = suite.run();

    std::printf("Section 6.1: low-TLB-pressure SPEC'17 Int class under "
                "colocation with objdet\n");
    print_improvement_table(result, /*name_width=*/12);

    bool any_regression = false;
    for (double improvement : result.improvements())
        any_regression |= improvement < -0.25;
    std::printf("\n%s\n",
                any_regression
                    ? "REGRESSION DETECTED — violates the paper's claim!"
                    : "no slowdowns: PTEMagnet is safe to enable "
                      "unconditionally (paper: 0-1% gains here).");
    return result.failed_count() == 0 ? 0 : 1;
}
