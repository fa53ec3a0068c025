/**
 * @file
 * Cloud-serving KV-cache bench: a memcached-style tier (Zipfian key
 * popularity over a slab heap, per-connection request arenas, seeded
 * connection churn) as the victim workload, swept across allocation
 * policies, plus a ws_estimate leg whose dirty-ring working-set
 * estimate steers the host reclaim daemon.
 *
 * Two modes:
 *
 * - default: the slow bench tier. An ExperimentSuite with a policy
 *   sweep over the kv_tier victim, a paired (buddy vs PTEMagnet) run,
 *   and a 3-VM overcommit leg with the dirty ring armed, emitting
 *   BENCH_serving_kv.json.
 * - `--smoke`: the tier-1 ctest (`serving_kv_smoke`). Runs a scaled-
 *   down suite, asserts the serving tier actually serves (ops retired,
 *   slab faulted, ring epochs closed on the armed leg), and checks
 *   every result is bit-identical across repeats and across suite
 *   thread counts (1 vs 4). Writes BENCH_serving_kv.json into the
 *   working directory so CI can archive it. Exits nonzero on any
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
        std::fprintf(stderr, "serving_kv: FAIL: %s\n", what);
        ++failures;
    }
}

/// The KV tier under colocation: Zipfian GET/SET traffic against a slab
/// heap while per-connection arenas churn through mmap/munmap.
ScenarioConfig
kv_config(double scale, std::uint64_t measure_ops)
{
    ScenarioConfig config = ScenarioConfig{}
                                .with_workload("kv_tier")
                                .with_workload_param("value_lines", 4)
                                .with_workload_param("connections", 16)
                                .with_scale(scale)
                                .with_measure_ops(measure_ops)
                                .with_warmup_ops(0);
    return config;
}

/// The overcommitted-host leg: the KV tier shares the host with two
/// stress-ng guests, the reclaim daemon is armed, and per-VM dirty
/// rings feed working-set estimates into the balloon sweep order.
ScenarioConfig
kv_overcommit_config(double scale, std::uint64_t measure_ops)
{
    ScenarioConfig config = kv_config(scale, measure_ops);
    config.with_vms(3);
    config.with_vm_spec(VmSpec{.scale = 0.2});
    config.platform.guest_frames = 8192;
    config.platform.host_frames = 20 * 1024;
    config.with_overcommit(OvercommitPolicy{}
                               .with_watermarks(128, 256)
                               .with_balloon_step(64)
                               .with_backoff(4, 64));
    config.with_dirty_ring(DirtyRingConfig{}
                               .with_ring_entries(512)
                               .with_epoch_ops(8192));
    return config;
}

ExperimentSuite
build_suite(double scale, std::uint64_t measure_ops)
{
    ExperimentSuite suite("serving_kv");
    suite.sweep("kv", "policy",
                std::vector<std::string>{"buddy", "ptemagnet", "thp"},
                kv_config(scale, measure_ops), RunKind::Single);
    suite.add("kv_paired", kv_config(scale, measure_ops),
              RunKind::Paired);
    suite.add("kv_overcommit_ws",
              kv_overcommit_config(scale, measure_ops),
              RunKind::Single);
    return suite;
}

int
smoke()
{
    const double scale = 0.25;
    const std::uint64_t measure_ops = 30'000;

    // Serial references for the two interesting legs.
    const ScenarioConfig kv = kv_config(scale, measure_ops);
    const ScenarioConfig oc = kv_overcommit_config(scale, measure_ops);

    ScenarioResult first = run_scenario(kv);
    check(first.victim_ops >= measure_ops, "the KV tier served traffic");
    check(first.victim_rss_pages > 0, "the slab heap was faulted in");
    check(!first.dirty_ring_armed,
          "a ring-disarmed run reports no ring telemetry");
    check(same_simulation(first, run_scenario(kv)),
          "repeat run is bit-identical");

    ScenarioResult armed = run_scenario(oc);
    check(armed.dirty_ring_armed, "the overcommit leg armed the ring");
    check(armed.dirty_ring_logged > 0, "write walks reached the ring");
    check(armed.dirty_ring_epochs >= 1, "at least one epoch closed");
    check(!armed.vms.empty() && armed.vms[0].status == "alive",
          "the KV tier's VM survived the overcommit");
    check(same_simulation(armed, run_scenario(oc)),
          "armed repeat run is bit-identical");

    // Thread-count invariance over the whole suite, then emit the BENCH
    // document from the 4-thread pass for CI to archive.
    for (unsigned threads : {1u, 4u}) {
        ExperimentSuite suite = build_suite(scale, measure_ops);
        SuiteOptions options;
        options.threads = threads;
        options.write_json = threads == 4;
        options.json_dir = ".";
        options.announce = false;
        SuiteResult result = suite.run(options);
        check(result.failed_count() == 0, "all suite entries completed");
        check(same_simulation(first, result.at("kv/policy=buddy").single),
              "suite buddy leg matches the serial run");
        check(same_simulation(armed, result.at("kv_overcommit_ws").single),
              "suite overcommit leg matches the serial run");
    }

    if (failures == 0)
        std::printf("serving_kv smoke OK: %llu ops, %llu dirty pages "
                    "logged, %llu epochs, identical across repeats and "
                    "1/4-thread suites\n",
                    (unsigned long long)first.victim_ops,
                    (unsigned long long)armed.dirty_ring_logged,
                    (unsigned long long)armed.dirty_ring_epochs);
    return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}

}  // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0)
        return smoke();

    ExperimentSuite suite = build_suite(1.0, 400'000);
    SuiteOptions options;
    options.json_dir = ".";
    SuiteResult result = suite.run(options);

    std::printf("\n== serving_kv ==\n");
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
        std::printf("%-24s cycles=%-12llu ops=%-8llu rss=%-6llu "
                    "ring[logged=%llu epochs=%llu ws=%llu]\n",
                    entry.entry.name.c_str(),
                    (unsigned long long)r.victim_cycles,
                    (unsigned long long)r.victim_ops,
                    (unsigned long long)r.victim_rss_pages,
                    (unsigned long long)r.dirty_ring_logged,
                    (unsigned long long)r.dirty_ring_epochs,
                    (unsigned long long)r.ws_estimate_pages);
    }
    return result.failed_count() == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
