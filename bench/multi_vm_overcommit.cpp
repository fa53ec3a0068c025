/**
 * @file
 * Multi-VM overcommit bench: co-resident VMs on one overcommitted host,
 * exercising the survival ladder (balloon sweeps, reclaim backoff,
 * deterministic OOM-kill) and the seeded churn-storm engine.
 *
 * Two modes:
 *
 * - default: an ExperimentSuite with a `vms` co-residency sweep plus a
 *   64-VM boot/kill/fork storm, emitting per-VM robustness blocks
 *   (balloon pages, reclaim sweeps, backoff waits, OOM kills, survivor
 *   walk cycles) into BENCH_multi_vm_overcommit.json — the slow bench
 *   tier, run manually.
 * - `--storm-smoke`: the tier-1 ctest (`churn_storm_smoke`). Runs the
 *   64-VM storm under armed overcommit pressure, asserts the host
 *   survived with >=1 deterministic OOM-kill, and checks the full
 *   result is bit-identical across repeats and across suite thread
 *   counts (1 vs 4). Exits nonzero on any violation.
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
        std::fprintf(stderr, "multi_vm_overcommit: FAIL: %s\n", what);
        ++failures;
    }
}

/// Co-residency base: one victim plus (vms - 1) stress-ng guests on a
/// host sized so ~4 VMs overcommit it, watermark reclaim armed.
ScenarioConfig
colocate_config()
{
    ScenarioConfig config = ScenarioConfig{}
                                .with_victim("stress-ng")
                                .with_scale(0.5)
                                .with_measure_ops(60'000)
                                .with_warmup_ops(0);
    config.platform.guest_frames = 4096;
    config.platform.host_frames = 8 * 1024;
    config.with_overcommit(OvercommitPolicy{}
                               .with_watermarks(128, 256)
                               .with_balloon_step(64)
                               .with_backoff(4, 64));
    return config;
}

/**
 * The acceptance scenario: 64 VM boots, 24 kills, and 8 forks storm a
 * host with far fewer frames than the peak co-resident footprint, with
 * periodic guest reclaim pressure armed on top. The ladder must keep the
 * protected victim VM alive — shedding load through balloons first,
 * OOM-kills when sweeps run dry.
 */
ScenarioConfig
storm_config()
{
    ScenarioConfig config = ScenarioConfig{}
                                .with_victim("stress-ng")
                                .with_scale(0.4)
                                .with_measure_ops(40'000)
                                .with_warmup_ops(0);
    config.platform.guest_frames = 8192;
    config.platform.host_frames = 16 * 1024;
    config.with_overcommit(OvercommitPolicy{}
                               .with_watermarks(256, 512)
                               .with_balloon_step(128)
                               .with_backoff(4, 64));
    config.with_churn(ChurnPlan::storm(/*seed=*/41, /*begin_step=*/500,
                                       /*end_step=*/60'000, /*boots=*/64,
                                       /*kills=*/24, /*forks=*/8)
                          .with_scale(0.1)
                          .with_guest_frames(2048));
    config.with_fault_plan(FaultPlan{}.periodic_pressure(20'000));
    return config;
}

void
print_robustness(const char *name, const ScenarioResult &result)
{
    std::printf(
        "%-24s oom_kills=%llu sweeps=%llu(+%llu emergency) "
        "backoff_waits=%llu balloon_pages=%llu boots=%llu kills=%llu "
        "forks=%llu\n",
        name, (unsigned long long)result.oom_kills,
        (unsigned long long)result.host_reclaim_sweeps,
        (unsigned long long)result.host_emergency_sweeps,
        (unsigned long long)result.host_backoff_waits,
        (unsigned long long)result.host_balloon_pages,
        (unsigned long long)result.churn_boots,
        (unsigned long long)result.churn_kills,
        (unsigned long long)result.churn_forks);
    for (const VmRecord &vm : result.vms) {
        std::printf("    vm%-3u %-12s balloon=%-6llu backed=%-6llu "
                    "walk_cycles=%-12llu ops=%llu\n",
                    vm.vm, vm.status.c_str(),
                    (unsigned long long)vm.balloon_pages,
                    (unsigned long long)vm.backed_pages,
                    (unsigned long long)vm.walk_cycles,
                    (unsigned long long)vm.ops);
    }
}

/// Field-by-field equality over everything the robustness block exports.
bool
same_result(const ScenarioResult &a, const ScenarioResult &b,
            const char *what)
{
    bool ok = a.victim_ops == b.victim_ops &&
              a.victim_cycles == b.victim_cycles &&
              a.oom_kills == b.oom_kills &&
              a.churn_boots == b.churn_boots &&
              a.churn_kills == b.churn_kills &&
              a.churn_forks == b.churn_forks &&
              a.churn_boot_failures == b.churn_boot_failures &&
              a.host_reclaim_sweeps == b.host_reclaim_sweeps &&
              a.host_emergency_sweeps == b.host_emergency_sweeps &&
              a.host_backoff_waits == b.host_backoff_waits &&
              a.host_balloon_pages == b.host_balloon_pages &&
              a.host_frames_unbacked == b.host_frames_unbacked &&
              a.vms.size() == b.vms.size();
    if (ok) {
        for (std::size_t i = 0; i < a.vms.size(); ++i) {
            ok = ok && a.vms[i].status == b.vms[i].status &&
                 a.vms[i].balloon_pages == b.vms[i].balloon_pages &&
                 a.vms[i].backed_pages == b.vms[i].backed_pages &&
                 a.vms[i].frames_repossessed ==
                     b.vms[i].frames_repossessed &&
                 a.vms[i].walk_cycles == b.vms[i].walk_cycles &&
                 a.vms[i].ops == b.vms[i].ops;
        }
    }
    check(ok, what);
    return ok;
}

/// Tier-1 acceptance run: survive the storm, deterministically.
int
storm_smoke()
{
    const ScenarioConfig config = storm_config();

    ScenarioResult first = run_scenario(config);
    print_robustness("storm64 (serial)", first);
    check(first.churn_boots >= 32,
          "the storm actually booted a VM fleet");
    check(first.oom_kills >= 1, "host pressure forced >=1 OOM-kill");
    check(first.host_reclaim_sweeps >= 1, "reclaim daemon swept");
    check(!first.vms.empty() && first.vms[0].status == "alive",
          "the protected primary VM survived");
    check(first.vms.size() == 1 + first.churn_boots,
          "every booted VM has a per-VM record");
    std::uint64_t oom_records = 0;
    for (const VmRecord &vm : first.vms)
        oom_records += vm.status == "oom_killed" ? 1 : 0;
    check(oom_records == first.oom_kills,
          "every OOM-kill surfaced as a degradation record");

    ScenarioResult second = run_scenario(config);
    same_result(first, second, "repeat run is bit-identical");

    // Thread-count invariance: the same entry, run concurrently with a
    // sibling on 1- and 4-thread suite pools, must match the serial run.
    for (unsigned threads : {1u, 4u}) {
        ExperimentSuite suite("multi_vm_storm_smoke");
        suite.add("storm", config, RunKind::Single);
        suite.add("storm-echo", config, RunKind::Single);
        SuiteOptions options;
        options.threads = threads;
        options.write_json = false;
        options.announce = false;
        SuiteResult result = suite.run(options);
        check(!result.at("storm").failed(), "suite storm leg completed");
        same_result(first, result.at("storm").single,
                    "suite run matches the serial run");
        same_result(first, result.at("storm-echo").single,
                    "concurrent sibling matches the serial run");
    }

    if (failures == 0)
        std::printf("storm smoke OK: %llu boots, %llu OOM-kills, "
                    "identical across repeats and 1/4-thread suites\n",
                    (unsigned long long)first.churn_boots,
                    (unsigned long long)first.oom_kills);
    return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}

}  // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--storm-smoke") == 0)
        return storm_smoke();

    ExperimentSuite suite("multi_vm_overcommit");
    suite.sweep("colocate", "vms", {1, 2, 4, 6}, colocate_config(),
                RunKind::Single);
    suite.add("storm64", storm_config(), RunKind::Single);

    SuiteOptions options;
    options.json_dir = ".";
    SuiteResult result = suite.run(options);

    std::printf("\n== multi_vm_overcommit: per-VM robustness ==\n");
    for (const EntryResult &entry : result.entries()) {
        if (entry.failed()) {
            std::printf("%-24s FAILED: %s\n", entry.entry.name.c_str(),
                        entry.error.c_str());
            continue;
        }
        print_robustness(entry.entry.name.c_str(), entry.single);
    }
    return result.failed_count() == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
