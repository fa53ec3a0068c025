/**
 * @file
 * Serverless fork-storm bench: a warm function image forked into a
 * burst of short-lived instances. The victim runs the fork_storm
 * workload (per-request arenas, COW-style stores into the shared
 * image), while a ChurnPlan fork storm multiplies fork_storm guests on
 * an overcommitted host — COW faults landing against PaRT reservations
 * under reclaim pressure.
 *
 * Two modes:
 *
 * - default: the slow bench tier. A policy sweep over the fork_storm
 *   victim plus the churn-storm overcommit leg, emitting
 *   BENCH_serving_forkstorm.json.
 * - `--smoke`: the tier-1 ctest (`serving_forkstorm_smoke`).
 *   Scaled-down suite with determinism checks across repeats and suite
 *   thread counts (1 vs 4); writes BENCH_serving_forkstorm.json into
 *   the working directory so CI can archive it. Exits nonzero on any
 *   violation.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/suite.hpp"

namespace {

using namespace ptm::sim;

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "serving_forkstorm: FAIL: %s\n", what);
        ++failures;
    }
}

/// One warm function instance: image reads with COW-style stores,
/// request-scoped arenas remapped every request.
ScenarioConfig
fork_config(double scale, std::uint64_t measure_ops)
{
    ScenarioConfig config = ScenarioConfig{}
                                .with_workload("fork_storm")
                                .with_workload_param("request_ops", 96)
                                .with_scale(scale)
                                .with_measure_ops(measure_ops)
                                .with_warmup_ops(0);
    return config;
}

/**
 * The storm: churn-forked fork_storm guests pile onto an overcommitted
 * host while the reclaim daemon balloons under watermark pressure and
 * per-VM dirty rings estimate each instance's working set.
 */
ScenarioConfig
storm_config(double scale, std::uint64_t measure_ops,
             std::uint64_t boots, std::uint64_t forks)
{
    ScenarioConfig config = fork_config(scale, measure_ops);
    config.platform.guest_frames = 8192;
    config.platform.host_frames = 16 * 1024;
    config.with_overcommit(OvercommitPolicy{}
                               .with_watermarks(192, 384)
                               .with_balloon_step(96)
                               .with_backoff(4, 64));
    config.with_churn(ChurnPlan::storm(/*seed=*/71, /*begin_step=*/500,
                                       /*end_step=*/measure_ops,
                                       boots, /*kills=*/boots / 3, forks)
                          .with_workload("fork_storm")
                          .with_scale(scale * 0.4)
                          .with_guest_frames(2048));
    config.with_dirty_ring(DirtyRingConfig{}
                               .with_ring_entries(512)
                               .with_epoch_ops(8192));
    return config;
}

ExperimentSuite
build_suite(double scale, std::uint64_t measure_ops, std::uint64_t boots,
            std::uint64_t forks)
{
    ExperimentSuite suite("serving_forkstorm");
    suite.sweep("fork", "policy",
                std::vector<std::string>{"buddy", "ptemagnet", "thp"},
                fork_config(scale, measure_ops), RunKind::Single);
    suite.add("fork_paired", fork_config(scale, measure_ops),
              RunKind::Paired);
    suite.add("fork_churn_storm",
              storm_config(scale, measure_ops, boots, forks),
              RunKind::Single);
    return suite;
}

int
smoke()
{
    const double scale = 0.25;
    const std::uint64_t measure_ops = 30'000;
    const std::uint64_t boots = 12;
    const std::uint64_t forks = 6;

    const ScenarioConfig storm =
        storm_config(scale, measure_ops, boots, forks);

    ScenarioResult first = run_scenario(storm);
    check(first.victim_ops >= measure_ops,
          "the warm instance served its requests");
    check(first.churn_boots >= boots / 2, "the storm booted instances");
    check(first.churn_forks >= 1, "the storm forked instances");
    check(first.dirty_ring_armed && first.dirty_ring_logged > 0,
          "COW-style stores reached the dirty rings");
    check(!first.vms.empty() && first.vms[0].status == "alive",
          "the protected primary instance survived");
    check(same_simulation(first, run_scenario(storm)),
          "repeat run is bit-identical");

    for (unsigned threads : {1u, 4u}) {
        ExperimentSuite suite =
            build_suite(scale, measure_ops, boots, forks);
        SuiteOptions options;
        options.threads = threads;
        options.write_json = threads == 4;
        options.json_dir = ".";
        options.announce = false;
        SuiteResult result = suite.run(options);
        check(result.failed_count() == 0, "all suite entries completed");
        check(same_simulation(first, result.at("fork_churn_storm").single),
              "suite storm leg matches the serial run");
    }

    if (failures == 0)
        std::printf("serving_forkstorm smoke OK: %llu ops, %llu boots, "
                    "%llu forks, %llu dirty pages logged, identical "
                    "across repeats and 1/4-thread suites\n",
                    (unsigned long long)first.victim_ops,
                    (unsigned long long)first.churn_boots,
                    (unsigned long long)first.churn_forks,
                    (unsigned long long)first.dirty_ring_logged);
    return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}

}  // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0)
        return smoke();

    ExperimentSuite suite =
        build_suite(1.0, 300'000, /*boots=*/32, /*forks=*/16);
    SuiteOptions options;
    options.json_dir = ".";
    SuiteResult result = suite.run(options);

    std::printf("\n== serving_forkstorm ==\n");
    for (const EntryResult &entry : result.entries()) {
        if (entry.failed()) {
            std::printf("%-24s FAILED: %s\n", entry.entry.name.c_str(),
                        entry.error.c_str());
            continue;
        }
        if (entry.is_paired()) {
            std::printf("%-24s improvement=%+.1f%%\n",
                        entry.entry.name.c_str(),
                        entry.improvement_percent());
            continue;
        }
        const ScenarioResult &r = entry.single;
        std::printf("%-24s cycles=%-12llu ops=%-8llu boots=%-4llu "
                    "forks=%-4llu ring[logged=%llu ws=%llu]\n",
                    entry.entry.name.c_str(),
                    (unsigned long long)r.victim_cycles,
                    (unsigned long long)r.victim_ops,
                    (unsigned long long)r.churn_boots,
                    (unsigned long long)r.churn_forks,
                    (unsigned long long)r.dirty_ring_logged,
                    (unsigned long long)r.ws_estimate_pages);
    }
    return result.failed_count() == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
