/**
 * @file
 * The workload catalog: named presets for every benchmark and co-runner
 * of the paper's Table 3, plus the §6.4 allocation microbenchmark.
 *
 * Footprints are scaled from the paper's setup (16 GB datasets, 25 MB
 * LLC) down to the simulator's default platform (≈50-130 MB footprints,
 * 2 MB LLC) preserving the footprint:LLC and footprint:TLB-reach ratios
 * that drive the observed effects.
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "workload/synthetic.hpp"
#include "workload/workload_factory.hpp"

namespace ptm::workload {

/// One co-runner: a catalog workload running @p workers worker processes
/// (the paper's co-runners are multi-threaded; each worker is one job).
struct CorunnerSpec {
    std::string name;
    unsigned workers = 1;
};

// Catalog presets are built through workload_factory.hpp's
// make_workload(). Catalog names:
//  - benchmarks: cc, bfs, nibble, pagerank, gcc, mcf, omnetpp, xz
//  - low-TLB-pressure SPEC'17 Int class: perlbench, x264, deepsjeng,
//    leela, exchange2, xalancbmk
//  - co-runners: objdet, stress-ng, chameleon, pyaes, json_serdes,
//    rnn_serving (gcc and xz double as co-runners, per Table 3)
//  - microbenchmarks: alloc_sweep (§6.4)
// The serving tier (kv_tier, fork_storm, ws_estimate, serving.hpp)
// shares the same name table in catalog.cpp.

/// The eight evaluated benchmarks, in the paper's figure order.
const std::vector<std::string> &benchmark_names();

/// The low-TLB-pressure SPEC'17 Int class used for the §6.1
/// "0-1%, never negative" sanity sweep.
const std::vector<std::string> &low_pressure_names();

/// The co-runner set used in the Figure 7 "combination" scenario.
const std::vector<std::string> &corunner_names();

/**
 * The named co-runner combinations of the evaluation, shared by the
 * benches instead of copy-pasted initializer lists:
 *  - "none":       standalone run (Table 1 reference arm)
 *  - "objdet8":    8-worker objdet, the highest-fault-rate co-runner
 *                  (Figures 5/6, Tables 4, §6.1/§6.2 protocols)
 *  - "combo":      the full Table 3 combination (Figure 7)
 *  - "stressng12": 12-worker stress-ng fault churn (Table 1)
 */
const std::map<std::string, std::vector<CorunnerSpec>> &corunner_presets();

/// Lookup one preset by name; unknown names are fatal.
const std::vector<CorunnerSpec> &corunner_preset(const std::string &name);

}  // namespace ptm::workload
