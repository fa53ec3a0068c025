/**
 * @file
 * Host cost per call of each simulator layer, timed in isolation with
 * google-benchmark at the paper-default geometry (sim::PlatformConfig
 * defaults). run.py runs it with --benchmark_format=json and converts
 * items_per_second into ns per call.
 *
 * Every benchmark checks, from the component's own counters after the
 * loop, that it exercised the path its name promises (a "hit" variant
 * that missed fails with SkipWithError, and run.py fails the run).
 */
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "core/part.hpp"
#include "host/host_kernel.hpp"
#include "mem/buddy_allocator.hpp"
#include "pt/hashed_page_table.hpp"
#include "pt/page_table.hpp"
#include "sim/platform.hpp"
#include "sim/suite.hpp"
#include "sim/system.hpp"
#include "tlb/tlb.hpp"
#include "vm/guest_kernel.hpp"
#include "workload/workload_factory.hpp"

namespace {

using namespace ptm;

const sim::PlatformConfig kPlatform{};

/// Fails the benchmark unless @p ok; the message names the broken path.
bool
expect(benchmark::State &state, bool ok, const char *what)
{
    if (!ok)
        state.SkipWithError(what);
    return ok;
}

std::uint64_t
iterations(const benchmark::State &state)
{
    return static_cast<std::uint64_t>(state.iterations());
}

/// Deterministic scattered keys (multiplicative hash of 0..n-1).
std::vector<std::uint64_t>
scattered(std::size_t n, std::uint64_t base, std::uint64_t range)
{
    std::vector<std::uint64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i)
        keys[i] = base + (i * 0x9e3779b97f4a7c15ULL >> 20) % range;
    return keys;
}

// ---- tlb ------------------------------------------------------------------

void
BM_TlbLookupHit(benchmark::State &state)
{
    tlb::TlbHierarchy tlb(kPlatform.tlb);
    // Half the L1 capacity, two per set: every probe hits L1.
    std::vector<std::uint64_t> keys(kPlatform.tlb.l1_entries / 2);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        keys[i] = 0x40000 + i;
        tlb.insert(keys[i], i);
    }
    const std::uint64_t before = tlb.l1_stats().hits.value();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(keys[i]));
        i = i + 1 == keys.size() ? 0 : i + 1;
    }
    expect(state,
           tlb.l1_stats().hits.value() - before == iterations(state),
           "tlb.lookup_hit: a probe missed L1");
    state.SetItemsProcessed(state.iterations());
}

void
BM_TlbLookupMiss(benchmark::State &state)
{
    tlb::TlbHierarchy tlb(kPlatform.tlb);
    for (std::uint64_t k = 0; k < 4 * kPlatform.tlb.l2_entries; ++k)
        tlb.insert(k, k);  // full sets, so a miss scans every way
    const std::vector<std::uint64_t> keys =
        scattered(4096, 1ULL << 30, 1ULL << 24);
    const std::uint64_t before = tlb.l2_stats().misses.value();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(keys[i]));
        i = (i + 1) & 4095;
    }
    expect(state,
           tlb.l2_stats().misses.value() - before == iterations(state),
           "tlb.lookup_miss: a probe hit");
    state.SetItemsProcessed(state.iterations());
}

void
BM_TlbInsert(benchmark::State &state)
{
    tlb::TlbHierarchy tlb(kPlatform.tlb);
    const std::vector<std::uint64_t> keys =
        scattered(4096, 1ULL << 30, 1ULL << 24);
    std::size_t i = 0;
    for (auto _ : state) {
        tlb.insert(keys[i], i);
        i = (i + 1) & 4095;
    }
    expect(state, tlb.lookup(keys[(i - 1) & 4095]).level != tlb::TlbLevel::Miss,
           "tlb.insert: last insert not found");
    state.SetItemsProcessed(state.iterations());
}

// ---- cache ----------------------------------------------------------------

std::uint64_t
served(const cache::MemoryHierarchy &h, cache::ServedBy level)
{
    return h.stats()
        .served[static_cast<unsigned>(cache::AccessKind::Data)]
                [static_cast<unsigned>(level)]
        .value();
}

void
BM_CacheAccessL1Hit(benchmark::State &state)
{
    cache::MemoryHierarchy h(kPlatform.hierarchy, 1);
    const std::vector<Addr> lines = {0x1000, 0x1040, 0x1080, 0x10c0,
                                     0x2000, 0x2040, 0x2080, 0x20c0};
    for (Addr a : lines)
        h.access(0, a, cache::AccessKind::Data);
    const std::uint64_t before = served(h, cache::ServedBy::L1);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            h.access(0, lines[i], cache::AccessKind::Data));
        i = (i + 1) & 7;
    }
    expect(state,
           served(h, cache::ServedBy::L1) - before == iterations(state),
           "cache.access_l1hit: an access missed L1");
    state.SetItemsProcessed(state.iterations());
}

void
BM_CacheAccessMem(benchmark::State &state)
{
    cache::MemoryHierarchy h(kPlatform.hierarchy, 1);
    // Stream over 64x the LLC: every line is long evicted when it comes
    // round again.
    const std::uint64_t lines =
        64 * kPlatform.hierarchy.llc.size_bytes / kCacheLineSize;
    const std::uint64_t before = served(h, cache::ServedBy::Memory);
    std::uint64_t line = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            h.access(0, line * kCacheLineSize, cache::AccessKind::Data));
        line = line + 1 == lines ? 0 : line + 1;
    }
    expect(state,
           served(h, cache::ServedBy::Memory) - before == iterations(state),
           "cache.access_mem: an access hit a cache");
    state.SetItemsProcessed(state.iterations());
}

// ---- pt -------------------------------------------------------------------

pt::FrameSource
counting_frames()
{
    auto next = std::make_shared<std::uint64_t>(1);
    return {[next]() -> std::optional<std::uint64_t> { return (*next)++; },
            [](std::uint64_t) {}};
}

pt::PteFields
present(std::uint64_t frame)
{
    pt::PteFields f;
    f.present = true;
    f.frame = frame;
    return f;
}

template <typename Table>
void
BM_PtWalk(benchmark::State &state)
{
    Table table(counting_frames());
    constexpr std::uint64_t kPages = 1 << 16;
    constexpr std::uint64_t kBase = 0x100000;
    for (std::uint64_t v = 0; v < kPages; ++v)
        table.map(kBase + v, present(v));
    const std::vector<std::uint64_t> vpns = scattered(4096, kBase, kPages);
    pt::WalkSteps steps;
    std::uint64_t complete = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        pt::WalkResult r = table.walk(vpns[i], steps);
        complete += r.complete;
        benchmark::DoNotOptimize(steps);
        i = (i + 1) & 4095;
    }
    expect(state, complete == iterations(state),
           "pt walk: a mapped vpn did not walk to its leaf");
    state.SetItemsProcessed(state.iterations());
}

void
BM_PtMap(benchmark::State &state)
{
    constexpr std::uint64_t kBatch = 64 * 1024;
    std::uint64_t maps = 0;
    bool ok = true;
    for (auto _ : state) {
        state.PauseTiming();
        auto table = std::make_unique<pt::PageTable>(counting_frames());
        state.ResumeTiming();
        for (std::uint64_t v = 0; v < kBatch; ++v)
            ok &= table->map(0x100000 + v, present(v));
        maps += kBatch;
        state.PauseTiming();
        table.reset();
        state.ResumeTiming();
    }
    expect(state, ok, "pt.map: a map failed");
    state.SetItemsProcessed(static_cast<std::int64_t>(maps));
}

// ---- mem ------------------------------------------------------------------

void
BM_BuddyAllocFree(benchmark::State &state)
{
    const unsigned order = static_cast<unsigned>(state.range(0));
    mem::BuddyAllocator buddy(0, 1 << 16);
    // Fragment the free lists the way a long run does: take three
    // quarters of memory in single frames, give back every other one.
    std::vector<std::uint64_t> taken;
    for (unsigned i = 0; i < 3 * (1 << 14); ++i)
        taken.push_back(*buddy.allocate(0));
    for (std::size_t i = 0; i < taken.size(); i += 2)
        buddy.free(taken[i]);
    bool ok = true;
    for (auto _ : state) {
        std::optional<std::uint64_t> f = buddy.allocate(order);
        ok &= f.has_value();
        if (f)
            buddy.free(*f);
    }
    expect(state, ok, "mem.alloc_free: an allocation failed");
    state.SetItemsProcessed(state.iterations());
}

// ---- core -----------------------------------------------------------------

constexpr std::uint64_t kGroups = 1024;

void
BM_PartClaim(benchmark::State &state)
{
    core::Part part;
    for (std::uint64_t g = 0; g < kGroups; ++g)
        part.create(g * 7, g * kPagesPerReservation, 0);
    std::uint64_t claims = 0, hits = 0;
    for (auto _ : state) {
        // Offsets 1..6 of every group: hits that never fill a group.
        for (unsigned off = 1; off + 1 < kPagesPerReservation; ++off) {
            for (std::uint64_t g = 0; g < kGroups; ++g) {
                core::ClaimResult r = part.claim(g * 7, off);
                hits += r.found && !r.already_mapped;
            }
        }
        claims += kGroups * (kPagesPerReservation - 2);
        state.PauseTiming();
        for (unsigned off = 1; off + 1 < kPagesPerReservation; ++off) {
            for (std::uint64_t g = 0; g < kGroups; ++g)
                part.release(g * 7, off);
        }
        state.ResumeTiming();
    }
    expect(state, hits == claims, "core.claim: a claim missed");
    state.SetItemsProcessed(static_cast<std::int64_t>(claims));
}

void
BM_PartLookupMiss(benchmark::State &state)
{
    core::Part part;
    for (std::uint64_t g = 0; g < kGroups; ++g)
        part.create(g * 7, g * kPagesPerReservation, 0);
    std::uint64_t found = 0;
    std::uint64_t g = 0;
    for (auto _ : state) {
        found += part.claim(g * 7 + 3, 1).found;  // between reservations
        g = g + 1 == kGroups ? 0 : g + 1;
    }
    expect(state, found == 0, "core.lookup_miss: a claim found a group");
    state.SetItemsProcessed(state.iterations());
}

// ---- vm / host fault paths --------------------------------------------------

constexpr std::uint64_t kFaultBatch = 4096;

void
BM_GuestFault(benchmark::State &state)
{
    vm::GuestKernel guest(kPlatform.guest_frames, kPlatform.guest_costs);
    vm::Process &proc = guest.create_process("perfbench");
    std::uint64_t faults = 0;
    bool ok = true;
    for (auto _ : state) {
        state.PauseTiming();
        const Addr base = proc.vas().mmap(kFaultBatch * kPageSize);
        state.ResumeTiming();
        for (std::uint64_t p = 0; p < kFaultBatch; ++p)
            ok &= guest.handle_fault(proc, page_number(base) + p).ok;
        faults += kFaultBatch;
        state.PauseTiming();
        guest.free_region(proc, base);
        state.ResumeTiming();
    }
    expect(state, ok, "vm.handle_fault: a fault failed");
    state.SetItemsProcessed(static_cast<std::int64_t>(faults));
}

void
BM_HostFault(benchmark::State &state)
{
    host::HostKernel host(kPlatform.host_frames, kPlatform.host_costs);
    std::uint64_t faults = 0;
    bool ok = true;
    for (auto _ : state) {
        state.PauseTiming();
        host::VmInstance &vm = host.create_vm();
        state.ResumeTiming();
        for (std::uint64_t gfn = 0; gfn < kFaultBatch; ++gfn)
            ok &= host.handle_fault(vm, gfn).ok;
        faults += kFaultBatch;
        state.PauseTiming();
        host.destroy_vm(vm);
        state.ResumeTiming();
    }
    expect(state, ok, "host.handle_fault: a fault failed");
    state.SetItemsProcessed(static_cast<std::int64_t>(faults));
}

// ---- workload ---------------------------------------------------------------

/// Stand-in for the sim layer: hands out address ranges, ignores frees.
class StubContext final : public workload::WorkloadContext {
  public:
    Addr
    mmap(Addr bytes) override
    {
        const Addr base = next_;
        next_ += (bytes + 2 * kPageSize) & ~(kPageSize - 1);
        return base;
    }
    void munmap(Addr) override {}
    void free_page(Addr) override {}

  private:
    Addr next_ = Addr{1} << 32;
};

/// Generators of the three benchmark workloads, at their scales there.
struct Generator {
    const char *name;
    double scale;
    workload::WorkloadParams params;
};

void
BM_NextBatch(benchmark::State &state, const Generator &gen)
{
    workload::WorkloadOptions options;
    options.scale = gen.scale;
    options.params = gen.params;
    StubContext ctx;
    std::unique_ptr<workload::Workload> w =
        workload::make_workload(gen.name, options);
    w->setup(ctx);
    workload::MemOp ops[8];
    std::uint64_t produced = 0;
    for (auto _ : state) {
        unsigned n = w->next_batch(ctx, ops, 8);
        if (n == 0) {  // finite generator done: start a fresh one
            state.PauseTiming();
            w = workload::make_workload(gen.name, options);
            w->setup(ctx);
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(ops);
        produced += n;
    }
    expect(state, produced > 0, "workload.next_batch: no ops produced");
    state.SetItemsProcessed(static_cast<std::int64_t>(produced));
}

// ---- obs ------------------------------------------------------------------

/// A System with the registry shape of walk_isolated: one VM, 13 jobs.
std::unique_ptr<sim::System>
wired_system()
{
    auto system = std::make_unique<sim::System>(kPlatform, 13);
    for (unsigned j = 0; j < 13; ++j) {
        workload::WorkloadOptions options;
        options.seed = j + 1;
        system->add_job(workload::make_workload("stress-ng", options));
    }
    return system;
}

void
BM_StatSnapshot(benchmark::State &state)
{
    std::unique_ptr<sim::System> system = wired_system();
    std::size_t entries = 0;
    for (auto _ : state) {
        obs::StatSnapshot s = system->stat_registry().snapshot();
        entries += s.size();
        benchmark::DoNotOptimize(s);
    }
    expect(state, entries > 0, "obs.snapshot: empty registry");
    state.SetItemsProcessed(static_cast<std::int64_t>(entries));
}

void
BM_StatJson(benchmark::State &state)
{
    std::unique_ptr<sim::System> system = wired_system();
    sim::ScenarioResult result;
    result.stats = system->stat_registry().snapshot();
    std::size_t bytes = 0;
    for (auto _ : state)
        bytes += sim::to_json(result).dump().size();
    expect(state, bytes > 0, "obs.json: empty document");
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * result.stats.size()));
}

// ---- mmu: System::step on a scripted translate path --------------------------

/**
 * Cycles read-only over fixed pages chosen so every op takes one
 * translate path. setup() maps `regions` regions `region_bytes` apart in
 * VA; op k touches page k/regions of region k%regions.
 */
class ScriptedWorkload final : public workload::Workload {
  public:
    ScriptedWorkload(std::uint64_t pages, std::uint64_t regions,
                     Addr region_bytes)
        : pages_(pages), regions_(regions), region_bytes_(region_bytes)
    {
    }

    void
    setup(workload::WorkloadContext &ctx) override
    {
        for (std::uint64_t r = 0; r < regions_; ++r) {
            const Addr base = ctx.mmap(region_bytes_);
            if (r == 0)
                base_ = base;
        }
    }

    std::optional<workload::MemOp>
    next(workload::WorkloadContext &) override
    {
        const std::uint64_t k = i_;
        i_ = i_ + 1 == pages_ ? 0 : i_ + 1;
        // Regions are laid out back to back (plus the kernel's guard
        // gap), so region r starts at base + r * stride. Region r's pages
        // start r page-directory spans in, so consecutive regions also
        // differ in the low bits that pick a page-walk-cache set.
        const std::uint64_t r = k % regions_;
        const Addr gva = base_ + r * (stride() + kPtesPerNode * kPageSize) +
                         (k / regions_) * kPageSize;
        return workload::MemOp{gva, false};
    }

    bool in_init_phase() const override { return false; }
    std::string name() const override { return "scripted"; }

  private:
    Addr
    stride() const
    {
        return region_bytes_ + 16 * kPageSize;
    }

    std::uint64_t pages_, regions_;
    Addr region_bytes_;
    Addr base_ = 0;
    std::uint64_t i_ = 0;
};

enum class StepPath { L1Hit, L2Hit, PwcHit, Miss2D };

void
BM_Step(benchmark::State &state, StepPath path)
{
    const tlb::TlbConfig &t = kPlatform.tlb;
    std::unique_ptr<ScriptedWorkload> w;
    switch (path) {
      case StepPath::L1Hit:  // half the L1 TLB
        w = std::make_unique<ScriptedWorkload>(t.l1_entries / 2, 1, 1 << 20);
        break;
      case StepPath::L2Hit:  // 2x L1 (LRU cycling misses), 1/4 of L2
        w = std::make_unique<ScriptedWorkload>(t.l2_entries / 4, 1, 1 << 20);
        break;
      case StepPath::PwcHit:  // 16x L2, all under a few PD entries
        w = std::make_unique<ScriptedWorkload>(16 * t.l2_entries, 1,
                                               64 << 20);
        break;
      case StepPath::Miss2D:  // 32 regions 512 GiB apart, round robin:
        // every PWC level sees 32 keys cycling through 16 entries.
        w = std::make_unique<ScriptedWorkload>(16 * t.l2_entries, 32,
                                               Addr{1} << 39);
        break;
    }
    sim::System system(kPlatform, 1);
    sim::Job &job = system.add_job(std::move(w));
    for (unsigned i = 0; i < 2 * 16 * t.l2_entries; ++i)
        system.step(job);  // fault everything in, fill the caches

    const mmu::WalkerStats &s = job.walker().stats();
    auto pwc_hits = [&job]() {
        std::uint64_t hits = 0;
        for (unsigned level = 0; level + 1 < kPtLevels; ++level)
            hits += job.walker().pwc().stats(level).hits.value();
        return hits;
    };
    const std::uint64_t l1 = s.tlb_l1_hits.value();
    const std::uint64_t l2 = s.tlb_l2_hits.value();
    const std::uint64_t walks = s.tlb_misses.value();
    const std::uint64_t faults = s.guest_faults.value() + s.host_faults.value();
    const std::uint64_t pd_hits = job.walker().pwc().stats(2).hits.value();
    const std::uint64_t pwc = pwc_hits();
    for (auto _ : state)
        system.step(job);

    const std::uint64_t n = iterations(state);
    const std::uint64_t d_l1 = s.tlb_l1_hits.value() - l1;
    const std::uint64_t d_l2 = s.tlb_l2_hits.value() - l2;
    const std::uint64_t d_walks = s.tlb_misses.value() - walks;
    const std::uint64_t d_pd = job.walker().pwc().stats(2).hits.value() -
                               pd_hits;
    const std::uint64_t d_pwc = pwc_hits() - pwc;
    bool ok = s.guest_faults.value() + s.host_faults.value() == faults;
    switch (path) {
      case StepPath::L1Hit: ok &= d_l1 == n; break;
      case StepPath::L2Hit: ok &= d_l2 == n; break;
      case StepPath::PwcHit: ok &= d_walks == n && d_pd == n; break;
      case StepPath::Miss2D: ok &= d_walks == n && d_pwc == 0; break;
    }
    const std::string why =
        "mmu.step: ops left the intended translate path (ops " +
        std::to_string(n) + ", L1 hits " + std::to_string(d_l1) +
        ", L2 hits " + std::to_string(d_l2) + ", walks " +
        std::to_string(d_walks) + ", PD-level PWC hits " +
        std::to_string(d_pd) + ", PWC hits " + std::to_string(d_pwc) + ")";
    expect(state, ok, why.c_str());
    state.SetItemsProcessed(state.iterations());
}

constexpr double kMinTime = 0.05;

void
register_all()
{
    auto add = [](const char *name, auto fn) {
        return benchmark::RegisterBenchmark(name, fn)->MinTime(kMinTime);
    };
    add("tlb.lookup_hit_ns", BM_TlbLookupHit);
    add("tlb.lookup_miss_ns", BM_TlbLookupMiss);
    add("tlb.insert_ns", BM_TlbInsert);
    add("cache.access_l1hit_ns", BM_CacheAccessL1Hit);
    add("cache.access_mem_ns", BM_CacheAccessMem);
    add("pt.radix_walk_ns", BM_PtWalk<pt::PageTable>);
    add("pt.hashed_walk_ns", BM_PtWalk<pt::HashedPageTable>);
    add("pt.map_ns", BM_PtMap);
    add("mem.alloc_free_ns.order0", BM_BuddyAllocFree)->Arg(0);
    add("mem.alloc_free_ns.order3", BM_BuddyAllocFree)->Arg(3);
    add("core.claim_ns", BM_PartClaim);
    add("core.lookup_miss_ns", BM_PartLookupMiss);
    add("vm.handle_fault_ns", BM_GuestFault);
    add("host.handle_fault_ns", BM_HostFault);
    static const Generator gens[] = {
        {"pagerank", 0.5, {}},
        {"stress-ng", 1.0, {}},
        {"fork_storm", 0.25, workload::WorkloadParams{{"request_ops", 96}}},
    };
    for (const Generator &g : gens) {
        const std::string name =
            std::string("workload.next_batch_ns_per_op.") + g.name;
        add(name.c_str(),
            [&g](benchmark::State &state) { BM_NextBatch(state, g); });
    }
    add("obs.snapshot_ns", BM_StatSnapshot);
    add("obs.json_ns", BM_StatJson);
    add("mmu.step_l1hit_ns",
        [](benchmark::State &st) { BM_Step(st, StepPath::L1Hit); });
    add("mmu.step_l2hit_ns",
        [](benchmark::State &st) { BM_Step(st, StepPath::L2Hit); });
    add("mmu.step_pwchit_ns",
        [](benchmark::State &st) { BM_Step(st, StepPath::PwcHit); });
    add("mmu.step_2dmiss_ns",
        [](benchmark::State &st) { BM_Step(st, StepPath::Miss2D); });
}

}  // namespace

int
main(int argc, char **argv)
{
    register_all();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 2;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
