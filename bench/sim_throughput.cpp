/**
 * @file
 * Simulator-throughput benchmark: how many simulated memory operations
 * per host second the per-access hot path (System::step ->
 * NestedWalker::translate -> Cache::access) sustains.
 *
 * Not a paper figure: this measures the *simulator itself*, so hot-path
 * refactors have a tracked perf trajectory. It drives the mixed
 * pagerank+objdet scenario (both policy legs) through ExperimentSuite on
 * one thread — per-leg wall-clock must not be perturbed by sibling legs —
 * and reports simulated ops/sec per leg; the numbers land in
 * BENCH_sim_throughput.json via the standard sink (`sim_perf` per leg).
 *
 * With --smoke (or PTM_SMOKE=1) the scenario shrinks to ctest size; the
 * run then only sanity-checks that throughput is reported, it does not
 * produce a meaningful rate.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/suite.hpp"

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "sim_throughput: FAIL: %s\n", what);
        ++failures;
    }
}

void
report_leg(const char *leg, const ptm::sim::ScenarioResult &result)
{
    std::printf("sim_throughput: %-9s ops=%llu host_seconds=%.3f "
                "ops_per_sec=%.0f\n",
                leg, static_cast<unsigned long long>(result.total_ops),
                result.host_seconds, result.ops_per_second());
    check(result.total_ops > 0, "leg executed operations");
    check(result.host_seconds > 0.0, "leg recorded wall-clock");
    check(result.ops_per_second() > 0.0, "leg reports a throughput");
}

}  // namespace

int
main(int argc, char **argv)
{
    using namespace ptm::sim;

    bool smoke = std::getenv("PTM_SMOKE") != nullptr;
    const char *floor_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--enforce-floor") == 0 &&
                 i + 1 < argc)
            floor_path = argv[++i];
    }

    // The acceptance scenario: pagerank victim colocated with objdet
    // co-runners, both policies. Heavy enough that steady-state ops
    // dominate setup, small enough to finish in seconds.
    ScenarioConfig mixed = ScenarioConfig{}
                               .with_victim("pagerank")
                               .with_corunner("objdet", 2)
                               .with_scale(smoke ? 0.05 : 0.4)
                               .with_measure_ops(smoke ? 20'000 : 2'000'000)
                               .with_warmup_ops(smoke ? 5'000 : 100'000);
    // Throughput configuration: a coarser scheduling quantum than the
    // experiment default slice_ops=2, so each job runs 64 ops back to
    // back between context switches. The bench measures simulator
    // speed, not a paper figure, so the interleave change is free; the
    // checked-in floor was measured at this quantum.
    mixed.platform.slice_ops = 64;
    if (smoke) {
        mixed.platform.guest_frames = 16 * 1024;
        mixed.platform.host_frames = 24 * 1024;
    }

    ExperimentSuite suite("sim_throughput");
    suite.add("pagerank_objdet", mixed);

    SuiteOptions options;
    options.threads = 1;  // per-leg wall-clock must be interference-free
    options.json_dir = ".";
    SuiteResult result = suite.run(options);

    const EntryResult &entry = result.at("pagerank_objdet");
    check(!entry.failed(), "suite entry completed");
    report_leg("baseline", entry.paired.baseline);
    report_leg("ptemagnet", entry.paired.ptemagnet);

    double total_ops =
        static_cast<double>(entry.paired.baseline.total_ops +
                            entry.paired.ptemagnet.total_ops);
    double total_seconds = entry.paired.baseline.host_seconds +
                           entry.paired.ptemagnet.host_seconds;
    double combined = 0.0;
    if (total_seconds > 0.0) {
        combined = total_ops / total_seconds;
        std::printf("sim_throughput: combined  ops_per_sec=%.0f\n",
                    combined);
    }

    // CI regression gate: --enforce-floor <file> names a checked-in
    // ops/sec floor (one number; '#' comments allowed). The run fails if
    // combined throughput drops more than 20% below it — wide enough for
    // shared-runner noise, tight enough to catch real hot-path
    // regressions. Raise the floor when the simulator gets faster.
    if (floor_path != nullptr) {
        double floor = 0.0;
        std::FILE *f = std::fopen(floor_path, "r");
        check(f != nullptr, "floor file opens");
        if (f != nullptr) {
            char line[256];
            while (std::fgets(line, sizeof line, f) != nullptr) {
                if (line[0] == '#' || line[0] == '\n')
                    continue;
                floor = std::strtod(line, nullptr);
                break;
            }
            std::fclose(f);
        }
        check(floor > 0.0, "floor file holds a positive ops/sec number");
        std::printf("sim_throughput: floor     ops_per_sec=%.0f "
                    "(enforcing >= 80%%: %.0f)\n",
                    floor, 0.8 * floor);
        if (combined < 0.8 * floor) {
            // One self-contained line with the numbers: CI logs get cut
            // down to the FAIL lines, which must carry the diagnosis.
            std::fprintf(stderr,
                         "sim_throughput: FAIL: combined throughput "
                         "%.0f ops/sec is below 80%% of the checked-in "
                         "floor %.0f (gate %.0f); see %s for the "
                         "floor's provenance\n",
                         combined, floor, 0.8 * floor, floor_path);
            ++failures;
        }
    }

    if (failures == 0)
        std::printf("sim_throughput: OK (%s mode)\n",
                    smoke ? "smoke" : "full");
    return failures == 0 ? 0 : 1;
}
