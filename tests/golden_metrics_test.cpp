/**
 * @file
 * Golden-metrics regression test: pins the complete simulated metric set
 * of one fixed-seed paired scenario (pagerank victim + stress-ng churn,
 * buddy vs PTEMagnet), of one direct System run (every WalkerStats
 * counter, the hierarchy's per-kind serving counters, per-level
 * CacheStats), and of one paired fork-storm serving scenario (hashed
 * tables, churn boots/kills/forks, overcommit reclaim, dirty rings; its
 * whole stat registry folded into one digest per leg) against a
 * checked-in snapshot.
 *
 * Purpose: hot-path refactors (SoA tag stores, devirtualized replacement,
 * walker changes) must keep simulated behaviour bit-identical. Any
 * divergence — a different victim, a perturbed LRU order, a dropped
 * counter — fails here loudly instead of silently shifting paper figures.
 *
 * If a change *intentionally* alters simulated behaviour, regenerate the
 * snapshot and justify the diff in the PR:
 *
 *     PTM_GOLDEN_PRINT=1 ./golden_metrics_test
 *
 * prints the new snapshot blocks in source form.
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "sim/suite.hpp"
#include "workload/catalog.hpp"

namespace ptm::sim {
namespace {

bool
print_mode()
{
    return std::getenv("PTM_GOLDEN_PRINT") != nullptr;
}

ScenarioConfig
golden_config()
{
    ScenarioConfig config = ScenarioConfig{}
                                .with_victim("pagerank")
                                .with_corunner("stress-ng", 2)
                                .with_scale(0.05)
                                .with_measure_ops(15'000)
                                .with_warmup_ops(5'000)
                                .with_seed(7);
    config.platform.guest_frames = 16 * 1024;
    config.platform.host_frames = 24 * 1024;
    return config;
}

using Snapshot = std::map<std::string, double>;

/// Every simulated (deterministic) scalar of a ScenarioResult. Host-side
/// provenance (host_seconds, ops/sec) is intentionally absent.
Snapshot
snapshot_of(const ScenarioResult &r)
{
    Snapshot s;
    for (const auto &[name, value] : r.metrics.values())
        s["metrics." + name] = value;
    s["victim_cycles"] = static_cast<double>(r.victim_cycles);
    s["victim_ops"] = static_cast<double>(r.victim_ops);
    s["victim_rss_pages"] = static_cast<double>(r.victim_rss_pages);
    s["frag.average_hpte_lines"] = r.fragmentation.average_hpte_lines;
    s["frag.fragmented_fraction"] = r.fragmentation.fragmented_fraction;
    s["frag.max_hpte_lines"] = r.fragmentation.max_hpte_lines;
    s["frag.groups"] = static_cast<double>(r.fragmentation.groups);
    s["peak_unused_reservation_fraction"] =
        r.peak_unused_reservation_fraction;
    s["reservations_created"] = static_cast<double>(r.reservations_created);
    s["part_hits"] = static_cast<double>(r.part_hits);
    s["buddy_calls"] = static_cast<double>(r.buddy_calls);
    s["total_ops"] = static_cast<double>(r.total_ops);
    return s;
}

/**
 * Fork-storm serving path at tier-1 size: the fork_storm victim on hashed
 * tables, a churn storm whose forks make COW-capable jobs, an armed
 * overcommit daemon on a host small enough to balloon, and dirty rings
 * whose working-set estimates order the balloon sweeps.
 */
ScenarioConfig
serving_golden_config()
{
    constexpr std::uint64_t kOps = 15'000;
    ScenarioConfig config = ScenarioConfig{}
                                .with_workload("fork_storm")
                                .with_workload_param("request_ops", 96)
                                .with_scale(0.25)
                                .with_table("hashed")
                                .with_measure_ops(kOps)
                                .with_warmup_ops(0)
                                .with_seed(7);
    // 6K host frames drop below the watermarks once the storm has booted:
    // balloon sweeps, emergency sweeps and OOM-kills all happen.
    config.platform.guest_frames = 8192;
    config.platform.host_frames = 6 * 1024;
    config.with_overcommit(OvercommitPolicy{}
                               .with_watermarks(192, 384)
                               .with_balloon_step(96)
                               .with_backoff(4, 64));
    config.with_churn(ChurnPlan::storm(/*seed=*/71, /*begin_step=*/500,
                                       /*end_step=*/kOps, /*boots=*/12,
                                       /*kills=*/4, /*forks=*/6)
                          .with_workload("fork_storm")
                          .with_scale(0.1)
                          .with_guest_frames(2048));
    config.with_dirty_ring(DirtyRingConfig{}
                               .with_ring_entries(256)
                               .with_epoch_ops(2048)
                               .with_reclaim_by_ws(true));
    return config;
}

/// snapshot_of() plus the multi-VM survival and dirty-ring telemetry.
Snapshot
serving_snapshot_of(const ScenarioResult &r)
{
    Snapshot s = snapshot_of(r);
    s["vms"] = static_cast<double>(r.vms.size());
    s["host_reclaim_sweeps"] = static_cast<double>(r.host_reclaim_sweeps);
    s["host_emergency_sweeps"] =
        static_cast<double>(r.host_emergency_sweeps);
    s["host_balloon_pages"] = static_cast<double>(r.host_balloon_pages);
    s["host_frames_unbacked"] = static_cast<double>(r.host_frames_unbacked);
    s["oom_kills"] = static_cast<double>(r.oom_kills);
    s["churn_boots"] = static_cast<double>(r.churn_boots);
    s["churn_kills"] = static_cast<double>(r.churn_kills);
    s["churn_forks"] = static_cast<double>(r.churn_forks);
    s["churn_boot_failures"] = static_cast<double>(r.churn_boot_failures);
    s["dirty_ring_logged"] = static_cast<double>(r.dirty_ring_logged);
    s["dirty_ring_epochs"] = static_cast<double>(r.dirty_ring_epochs);
    s["ws_estimate_pages"] = static_cast<double>(r.ws_estimate_pages);
    s["ws_guided_sweeps"] = static_cast<double>(r.ws_guided_sweeps);
    return s;
}

/**
 * FNV-1a over every registry entry (path, then counter value or
 * histogram summary), bit-exact on doubles. Paths containing ".wrf." are
 * skipped: the pinned digests were taken from a build that also
 * registered walk-register-file occupancy stats, which describe
 * simulator machinery rather than simulated state.
 */
std::uint64_t
registry_digest(const obs::StatSnapshot &stats)
{
    std::uint64_t hash = 1469598103934665603ULL;
    auto bytes = [&hash](const void *data, std::size_t n) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash ^= p[i];
            hash *= 1099511628211ULL;
        }
    };
    for (const obs::StatSnapshot::Entry &e : stats.entries()) {
        if (e.path.find(".wrf.") != std::string::npos)
            continue;
        bytes(e.path.data(), e.path.size() + 1);
        if (!e.is_histogram) {
            bytes(&e.value, sizeof e.value);
            continue;
        }
        const obs::HistogramSummary &h = e.histogram;
        for (std::uint64_t v : {h.count, h.sum, h.min, h.max, h.p50, h.p90,
                                h.p99})
            bytes(&v, sizeof v);
        bytes(&h.mean, sizeof h.mean);
    }
    return hash;
}

void
print_snapshot(const char *label, const Snapshot &snapshot)
{
    std::printf("const Snapshot %s = {\n", label);
    for (const auto &[name, value] : snapshot)
        std::printf("    {\"%s\", %.17g},\n", name.c_str(), value);
    std::printf("};\n");
}

void
expect_matches(const Snapshot &actual, const Snapshot &golden,
               const char *label)
{
    for (const auto &[name, value] : golden) {
        auto it = actual.find(name);
        ASSERT_NE(it, actual.end())
            << label << ": metric '" << name << "' disappeared";
        EXPECT_EQ(it->second, value)
            << label << ": '" << name << "' diverged from the snapshot";
    }
    for (const auto &[name, value] : actual) {
        EXPECT_TRUE(golden.count(name))
            << label << ": new metric '" << name
            << "' is missing from the snapshot — regenerate it";
    }
}

// ---- checked-in snapshots (PTM_GOLDEN_PRINT=1 regenerates) -----------

const Snapshot kGoldenBaseline = {
    {"buddy_calls", 38394},
    {"frag.average_hpte_lines", 5.4705882352941178},
    {"frag.fragmented_fraction", 0.99264705882352944},
    {"frag.groups", 136},
    {"frag.max_hpte_lines", 8},
    {"metrics.cache_misses", 1924},
    {"metrics.execution_time", 574345},
    {"metrics.fragmented_group_fraction", 0.99264705882352944},
    {"metrics.guest_pt_mem_accesses", 18},
    {"metrics.host_pt_fragmentation", 5.4705882352941178},
    {"metrics.host_pt_mem_accesses", 22},
    {"metrics.host_pt_walk_cycles", 27868},
    {"metrics.page_walk_cycles", 39206},
    {"metrics.tlb_misses", 1090},
    {"part_hits", 0},
    {"peak_unused_reservation_fraction", 0},
    {"reservations_created", 0},
    {"total_ops", 53220},
    {"victim_cycles", 574345},
    {"victim_ops", 15000},
    {"victim_rss_pages", 1076},
};
const Snapshot kGoldenPtemagnet = {
    {"buddy_calls", 7280},
    {"frag.average_hpte_lines", 1},
    {"frag.fragmented_fraction", 0},
    {"frag.groups", 136},
    {"frag.max_hpte_lines", 1},
    {"metrics.cache_misses", 1897},
    {"metrics.execution_time", 559805},
    {"metrics.fragmented_group_fraction", 0},
    {"metrics.guest_pt_mem_accesses", 9},
    {"metrics.host_pt_fragmentation", 1},
    {"metrics.host_pt_mem_accesses", 14},
    {"metrics.host_pt_walk_cycles", 22974},
    {"metrics.page_walk_cycles", 31798},
    {"metrics.tlb_misses", 1090},
    {"part_hits", 30940},
    {"peak_unused_reservation_fraction", 0.011152416356877323},
    {"reservations_created", 7280},
    {"total_ops", 53220},
    {"victim_cycles", 559805},
    {"victim_ops", 15000},
    {"victim_rss_pages", 1076},
};
const Snapshot kGoldenSystem = {
    {"cache.l1_0.hits", 35034},
    {"cache.l1_0.misses", 7799},
    {"cache.l1_0.resident_lines", 256},
    {"cache.l2_0.hits", 3061},
    {"cache.l2_0.misses", 4738},
    {"cache.l2_0.resident_lines", 1024},
    {"cache.llc.hits", 1065},
    {"cache.llc.misses", 62618},
    {"cache.llc.resident_lines", 4096},
    {"hier.data.accesses", 78220},
    {"hier.data.cycles", 12522392},
    {"hier.data.served_by.L1", 19686},
    {"hier.data.served_by.L2", 2100},
    {"hier.data.served_by.LLC", 7},
    {"hier.data.served_by.memory", 56427},
    {"hier.guest-pt.accesses", 58701},
    {"hier.guest-pt.cycles", 1416202},
    {"hier.guest-pt.served_by.L1", 52893},
    {"hier.guest-pt.served_by.L2", 355},
    {"hier.guest-pt.served_by.LLC", 0},
    {"hier.guest-pt.served_by.memory", 5453},
    {"hier.host-pt.accesses", 127274},
    {"hier.host-pt.cycles", 725274},
    {"hier.host-pt.served_by.L1", 124033},
    {"hier.host-pt.served_by.L2", 1445},
    {"hier.host-pt.served_by.LLC", 1058},
    {"hier.host-pt.served_by.memory", 738},
    {"system.total_steps", 78220},
    {"walker.fault_cycles", 3625720},
    {"walker.guest_faults", 1076},
    {"walker.guest_pt_accesses", 3680},
    {"walker.guest_pt_cycles", 58446},
    {"walker.guest_pt_mem_accesses", 186},
    {"walker.host_faults", 662},
    {"walker.host_pt_accesses", 13077},
    {"walker.host_pt_cycles", 98240},
    {"walker.host_pt_mem_accesses", 167},
    {"walker.host_walks", 2608},
    {"walker.nested_tlb_hits", 3671},
    {"walker.tlb_l1_hits", 20228},
    {"walker.tlb_l2_hits", 3249},
    {"walker.tlb_misses", 2599},
    {"walker.translations", 26076},
    {"walker.walk_cycles", 156686},
};

const Snapshot kGoldenServingBaseline = {
    {"buddy_calls", 2169},
    {"churn_boot_failures", 0},
    {"churn_boots", 12},
    {"churn_forks", 6},
    {"churn_kills", 3},
    {"dirty_ring_epochs", 42},
    {"dirty_ring_logged", 12674},
    {"frag.average_hpte_lines", 7.893129770992366},
    {"frag.fragmented_fraction", 0.99236641221374045},
    {"frag.groups", 131},
    {"frag.max_hpte_lines", 8},
    {"host_balloon_pages", 9216},
    {"host_emergency_sweeps", 2},
    {"host_frames_unbacked", 0},
    {"host_reclaim_sweeps", 10},
    {"metrics.cache_misses", 8021},
    {"metrics.churn_boots", 12},
    {"metrics.dirty_ring_epochs", 42},
    {"metrics.dirty_ring_logged", 12674},
    {"metrics.execution_time", 3511128},
    {"metrics.fragmented_group_fraction", 0.99236641221374045},
    {"metrics.guest_pt_mem_accesses", 1843},
    {"metrics.host_balloon_pages", 9216},
    {"metrics.host_frames_unbacked", 0},
    {"metrics.host_pt_fragmentation", 7.893129770992366},
    {"metrics.host_pt_mem_accesses", 1786},
    {"metrics.host_pt_walk_cycles", 451244},
    {"metrics.host_reclaim_sweeps", 10},
    {"metrics.oom_kills", 2},
    {"metrics.page_walk_cycles", 921542},
    {"metrics.tlb_misses", 4759},
    {"metrics.ws_estimate_pages", 213},
    {"metrics.ws_guided_sweeps", 10},
    {"oom_kills", 2},
    {"part_hits", 0},
    {"peak_unused_reservation_fraction", 0},
    {"reservations_created", 0},
    {"total_ops", 101946},
    {"victim_cycles", 3511128},
    {"victim_ops", 15000},
    {"victim_rss_pages", 1041},
    {"vms", 13},
    {"ws_estimate_pages", 213},
    {"ws_guided_sweeps", 10},
};
const Snapshot kGoldenServingPtemagnet = {
    {"buddy_calls", 287},
    {"churn_boot_failures", 0},
    {"churn_boots", 12},
    {"churn_forks", 6},
    {"churn_kills", 3},
    {"dirty_ring_epochs", 42},
    {"dirty_ring_logged", 12672},
    {"frag.average_hpte_lines", 7.9160305343511448},
    {"frag.fragmented_fraction", 0.99236641221374045},
    {"frag.groups", 131},
    {"frag.max_hpte_lines", 8},
    {"host_balloon_pages", 10176},
    {"host_emergency_sweeps", 2},
    {"host_frames_unbacked", 4},
    {"host_reclaim_sweeps", 11},
    {"metrics.cache_misses", 8035},
    {"metrics.churn_boots", 12},
    {"metrics.dirty_ring_epochs", 42},
    {"metrics.dirty_ring_logged", 12672},
    {"metrics.execution_time", 3527078},
    {"metrics.fragmented_group_fraction", 0.99236641221374045},
    {"metrics.guest_pt_mem_accesses", 1776},
    {"metrics.host_balloon_pages", 10176},
    {"metrics.host_frames_unbacked", 4},
    {"metrics.host_pt_fragmentation", 7.9160305343511448},
    {"metrics.host_pt_mem_accesses", 1823},
    {"metrics.host_pt_walk_cycles", 458212},
    {"metrics.host_reclaim_sweeps", 11},
    {"metrics.oom_kills", 2},
    {"metrics.page_walk_cycles", 911688},
    {"metrics.tlb_misses", 4759},
    {"metrics.ws_estimate_pages", 213},
    {"metrics.ws_guided_sweeps", 11},
    {"oom_kills", 2},
    {"part_hits", 910},
    {"peak_unused_reservation_fraction", 0.0067243035542747355},
    {"reservations_created", 287},
    {"total_ops", 101942},
    {"victim_cycles", 3527078},
    {"victim_ops", 15000},
    {"victim_rss_pages", 1041},
    {"vms", 13},
    {"ws_estimate_pages", 213},
    {"ws_guided_sweeps", 11},
};
constexpr std::uint64_t kGoldenServingDigestBaseline =
    0x95cea891a1731460ULL;
constexpr std::uint64_t kGoldenServingDigestPtemagnet =
    0x2bf64da96e578d11ULL;

TEST(GoldenMetrics, PairedScenarioMatchesSnapshot)
{
    PairedResult paired = run_paired(golden_config());
    Snapshot baseline = snapshot_of(paired.baseline);
    Snapshot ptemagnet = snapshot_of(paired.ptemagnet);

    if (print_mode()) {
        print_snapshot("kGoldenBaseline", baseline);
        print_snapshot("kGoldenPtemagnet", ptemagnet);
        return;
    }
    expect_matches(baseline, kGoldenBaseline, "baseline leg");
    expect_matches(ptemagnet, kGoldenPtemagnet, "ptemagnet leg");
}

/// Direct System run pinning the raw counter planes the hot path feeds:
/// all WalkerStats counters of the victim core, the hierarchy's per-kind
/// serving matrix, and per-level CacheStats totals.
TEST(GoldenMetrics, SystemCountersMatchSnapshot)
{
    PlatformConfig platform;
    platform.guest_frames = 16 * 1024;
    platform.host_frames = 24 * 1024;
    platform.seed = 99;

    System system(platform, 3);
    workload::WorkloadOptions options;
    options.scale = 0.05;
    options.seed = 7;
    Job &victim =
        system.add_job(workload::make_workload("pagerank", options));
    workload::WorkloadOptions co = options;
    co.seed = 1008;
    system.add_job(workload::make_workload("stress-ng", co));
    co.seed = 1009;
    system.add_job(workload::make_workload("objdet", co));

    system.run_until_init_done(victim);
    system.run_ops(victim, 25'000);

    Snapshot s;
    const mmu::WalkerStats &w = victim.walker().stats();
    s["walker.translations"] = static_cast<double>(w.translations.value());
    s["walker.tlb_l1_hits"] = static_cast<double>(w.tlb_l1_hits.value());
    s["walker.tlb_l2_hits"] = static_cast<double>(w.tlb_l2_hits.value());
    s["walker.tlb_misses"] = static_cast<double>(w.tlb_misses.value());
    s["walker.walk_cycles"] = static_cast<double>(w.walk_cycles.value());
    s["walker.guest_pt_cycles"] =
        static_cast<double>(w.guest_pt_cycles.value());
    s["walker.host_pt_cycles"] =
        static_cast<double>(w.host_pt_cycles.value());
    s["walker.host_walks"] = static_cast<double>(w.host_walks.value());
    s["walker.nested_tlb_hits"] =
        static_cast<double>(w.nested_tlb_hits.value());
    s["walker.guest_pt_accesses"] =
        static_cast<double>(w.guest_pt_accesses.value());
    s["walker.host_pt_accesses"] =
        static_cast<double>(w.host_pt_accesses.value());
    s["walker.guest_pt_mem_accesses"] =
        static_cast<double>(w.guest_pt_mem_accesses.value());
    s["walker.host_pt_mem_accesses"] =
        static_cast<double>(w.host_pt_mem_accesses.value());
    s["walker.guest_faults"] = static_cast<double>(w.guest_faults.value());
    s["walker.host_faults"] = static_cast<double>(w.host_faults.value());
    s["walker.fault_cycles"] = static_cast<double>(w.fault_cycles.value());

    const cache::HierarchyStats &h = system.hierarchy().stats();
    for (unsigned k = 0; k < cache::kAccessKindCount; ++k) {
        std::string kind = cache::access_kind_name(
            static_cast<cache::AccessKind>(k));
        for (unsigned l = 0; l < cache::kServedByCount; ++l) {
            std::string level =
                cache::served_by_name(static_cast<cache::ServedBy>(l));
            s["hier." + kind + ".served_by." + level] =
                static_cast<double>(h.served[k][l].value());
        }
        s["hier." + kind + ".accesses"] =
            static_cast<double>(h.accesses[k].value());
        s["hier." + kind + ".cycles"] =
            static_cast<double>(h.cycles[k].value());
    }

    auto cache_totals = [&s](const std::string &name,
                             const cache::Cache &cache) {
        s["cache." + name + ".hits"] =
            static_cast<double>(cache.stats().total_hits());
        s["cache." + name + ".misses"] =
            static_cast<double>(cache.stats().total_misses());
        s["cache." + name + ".resident_lines"] =
            static_cast<double>(cache.resident_lines());
    };
    cache_totals("l1_0", system.hierarchy().l1(0));
    cache_totals("l2_0", system.hierarchy().l2(0));
    cache_totals("llc", system.hierarchy().llc());

    s["system.total_steps"] = static_cast<double>(system.total_steps());

    if (print_mode()) {
        print_snapshot("kGoldenSystem", s);
        return;
    }
    expect_matches(s, kGoldenSystem, "system counters");
}

/// Paired fork-storm serving run: every metric, the survival and
/// dirty-ring telemetry, and a digest of the whole stat registry per leg.
TEST(GoldenMetrics, ServingScenarioMatchesSnapshot)
{
    PairedResult paired = run_paired(serving_golden_config());
    for (const ScenarioResult *leg : {&paired.baseline, &paired.ptemagnet}) {
        // The path under test really ran: COW-capable forked jobs,
        // balloon sweeps, and sweeps ordered by working-set estimates.
        EXPECT_GT(leg->churn_forks, 0u);
        EXPECT_GT(leg->host_reclaim_sweeps, 0u);
        EXPECT_GT(leg->host_balloon_pages, 0u);
        EXPECT_GT(leg->ws_guided_sweeps, 0u);
    }
    Snapshot baseline = serving_snapshot_of(paired.baseline);
    Snapshot ptemagnet = serving_snapshot_of(paired.ptemagnet);
    const std::uint64_t baseline_digest =
        registry_digest(paired.baseline.stats);
    const std::uint64_t ptemagnet_digest =
        registry_digest(paired.ptemagnet.stats);

    if (print_mode()) {
        print_snapshot("kGoldenServingBaseline", baseline);
        print_snapshot("kGoldenServingPtemagnet", ptemagnet);
        std::printf("constexpr std::uint64_t kGoldenServingDigestBaseline "
                    "=\n    0x%016" PRIx64 "ULL;\n",
                    baseline_digest);
        std::printf("constexpr std::uint64_t kGoldenServingDigestPtemagnet "
                    "=\n    0x%016" PRIx64 "ULL;\n",
                    ptemagnet_digest);
        return;
    }
    expect_matches(baseline, kGoldenServingBaseline, "serving baseline leg");
    expect_matches(ptemagnet, kGoldenServingPtemagnet,
                   "serving ptemagnet leg");
    EXPECT_EQ(baseline_digest, kGoldenServingDigestBaseline)
        << "serving baseline leg: stat registry diverged";
    EXPECT_EQ(ptemagnet_digest, kGoldenServingDigestPtemagnet)
        << "serving ptemagnet leg: stat registry diverged";
}

}  // namespace
}  // namespace ptm::sim
