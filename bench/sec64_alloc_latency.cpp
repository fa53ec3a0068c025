/**
 * @file
 * Reproduces §6.4: PTEMagnet's effect on memory-allocation latency.
 *
 * Two parts:
 *  1. The paper's macro experiment, simulated: a microbenchmark maps a
 *     large array and touches every page once; execution is dominated by
 *     the fault/allocation path. PTEMagnet replaces 7 of every 8 buddy
 *     calls with PaRT hits and should come out marginally *faster*
 *     (paper: -0.5%).
 *  2. google-benchmark microbenchmarks of the allocator fast paths
 *     themselves (buddy allocate/free, PaRT create/claim/release), which
 *     ground the cost-model constants.
 */
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "core/part.hpp"
#include "mem/buddy_allocator.hpp"
#include "sim/suite.hpp"

namespace {

void
BM_BuddyAllocFreeFrame(benchmark::State &state)
{
    ptm::mem::BuddyAllocator buddy(0, 1u << 16);
    for (auto _ : state) {
        auto frame = buddy.allocate_frame();
        benchmark::DoNotOptimize(frame);
        buddy.free(*frame);
    }
}
BENCHMARK(BM_BuddyAllocFreeFrame);

void
BM_BuddyAllocFreeChunk(benchmark::State &state)
{
    ptm::mem::BuddyAllocator buddy(0, 1u << 16);
    for (auto _ : state) {
        auto base = buddy.allocate_split(3);
        benchmark::DoNotOptimize(base);
        buddy.free_frames(*base, 8);
    }
}
BENCHMARK(BM_BuddyAllocFreeChunk);

void
BM_PartCreateClaimCycle(benchmark::State &state)
{
    ptm::core::Part part;
    std::uint64_t group = 0;
    for (auto _ : state) {
        // One full reservation lifecycle: create + 7 claims (the eighth
        // page deletes the entry), modelling 8 page faults.
        part.create(group, group * 8, 0);
        for (unsigned offset = 1; offset < 8; ++offset)
            benchmark::DoNotOptimize(part.claim(group, offset));
        ++group;
    }
}
BENCHMARK(BM_PartCreateClaimCycle);

void
BM_PartClaimHit(benchmark::State &state)
{
    ptm::core::Part part;
    // Pre-create reservations and cycle through claiming/releasing one
    // page so every iteration is a hit on a live entry.
    constexpr std::uint64_t kGroups = 1024;
    for (std::uint64_t g = 0; g < kGroups; ++g)
        part.create(g, g * 8, 0);
    std::uint64_t group = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(part.claim(group, 1));
        part.release(group, 1);
        group = (group + 1) % kGroups;
    }
}
BENCHMARK(BM_PartClaimHit);

void
BM_PartLookupMiss(benchmark::State &state)
{
    ptm::core::Part part;
    part.create(1, 8, 0);
    std::uint64_t group = 1u << 20;
    for (auto _ : state) {
        benchmark::DoNotOptimize(part.find(group));
        ++group;
    }
}
BENCHMARK(BM_PartLookupMiss);

/// The simulated §6.4 macro experiment.
/// @return the number of failed suite entries.
std::size_t
run_alloc_sweep()
{
    using namespace ptm::sim;

    ExperimentSuite suite("sec64_alloc_latency");
    suite.add("alloc_sweep",
              ScenarioConfig{}
                  .with_victim("alloc_sweep")
                  .with_corunners({})
                  .with_scale(0.5)      // ~96 MiB array (paper: 60 GB)
                  .with_measure_ops(10) // the init sweep is the workload
                  .with_measure_init());
    SuiteResult result = suite.run();
    const PairedResult &pair = result.at("alloc_sweep").paired;
    double base = static_cast<double>(pair.baseline.victim_cycles);
    double ptm = static_cast<double>(pair.ptemagnet.victim_cycles);
    std::printf("\nSection 6.4: allocation-latency macro benchmark "
                "(touch every page of a large array)\n");
    std::printf("  default kernel: %13.0f cycles  (%llu buddy calls)\n",
                base,
                static_cast<unsigned long long>(
                    pair.baseline.buddy_calls));
    std::printf("  PTEMagnet:      %13.0f cycles  (%llu buddy calls, "
                "%llu PaRT hits)\n",
                ptm,
                static_cast<unsigned long long>(
                    pair.ptemagnet.buddy_calls),
                static_cast<unsigned long long>(pair.ptemagnet.part_hits));
    std::printf("  change: %+.2f%%   [paper: -0.5%% — PTEMagnet slightly "
                "faster, 7 of 8 buddy\n  calls replaced by PaRT hits]\n\n",
                100.0 * (ptm - base) / base);
    return result.failed_count();
}

}  // namespace

int
main(int argc, char **argv)
{
    const std::size_t failed = run_alloc_sweep();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return failed == 0 ? 0 : 1;
}
