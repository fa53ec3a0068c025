/**
 * @file
 * Cloud-serving workload tier tests: the string-keyed workload factory
 * (fail-fast unknown names, params-keyed stream memoization), Zipfian
 * sampler statistics, determinism of the kv_tier / fork_storm / ws_estimate
 * generators across repeats and suite thread counts, and the armed
 * dirty ring's pure-observer contract.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/suite.hpp"
#include "workload/serving.hpp"
#include "workload/workload_factory.hpp"

namespace ptm::sim {
namespace {

// ---- factory ---------------------------------------------------------

TEST(WorkloadFactory, ServingTierAndCatalogShareTheRegistry)
{
    EXPECT_TRUE(workload::workload_registered("kv_tier"));
    EXPECT_TRUE(workload::workload_registered("fork_storm"));
    EXPECT_TRUE(workload::workload_registered("ws_estimate"));
    // Catalog benchmarks come through the same factory.
    EXPECT_TRUE(workload::workload_registered("pagerank"));
    EXPECT_TRUE(workload::workload_registered("stress-ng"));

    workload::WorkloadOptions options;
    options.scale = 0.1;
    auto w = workload::make_workload("kv_tier", options);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->name(), "kv_tier");
    EXPECT_GT(w->static_footprint(), 0u);
}

TEST(WorkloadFactory, UnknownNameFailsFastListingRegistered)
{
    EXPECT_THROW(workload::make_workload("no_such_workload", {}),
                 SimError);
    try {
        workload::make_workload("no_such_workload", {});
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("no_such_workload"), std::string::npos);
        EXPECT_NE(what.find("kv_tier"), std::string::npos);
    }
    // The fluent config setter fails at config-build time the same way.
    EXPECT_THROW(ScenarioConfig{}.with_workload("no_such_workload"),
                 SimError);
}

TEST(WorkloadFactory, WorkloadSweepAxisSelectsVictims)
{
    ExperimentSuite suite("serving_axis");
    suite.sweep("w", "workload",
                std::vector<std::string>{"kv_tier", "fork_storm",
                                         "ws_estimate"},
                ScenarioConfig{});
    ASSERT_EQ(suite.size(), 3u);
    EXPECT_EQ(suite.entries()[0].config.victim, "kv_tier");
    EXPECT_EQ(suite.entries()[1].config.victim, "fork_storm");
    EXPECT_EQ(suite.entries()[2].config.victim, "ws_estimate");
    EXPECT_EQ(suite.entries()[2].name, "w/workload=ws_estimate");
    EXPECT_EQ(suite.entries()[2].sweep_text, "ws_estimate");
}

// ---- Zipfian sampler -------------------------------------------------

TEST(ZipfianSampler, ChiSquaredAgainstAnalyticMass)
{
    const std::uint64_t n = 1000;
    const double theta = 0.99;
    const std::uint64_t draws = 200'000;
    workload::ZipfianSampler zipf(n, theta);
    Rng rng(42);

    std::vector<std::uint64_t> counts(n, 0);
    for (std::uint64_t i = 0; i < draws; ++i) {
        const std::uint64_t rank = zipf.next(rng);
        ASSERT_LT(rank, n);
        ++counts[rank];
    }

    // The head carries most of the mass (theta=0.99): rank 0 alone is
    // ~13% of all draws and ranks decay monotonically on average.
    EXPECT_GT(counts[0], draws / 10);
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[10], counts[200]);

    // Chi-squared over the top 64 ranks plus an aggregated tail bucket,
    // against the analytic Zipf mass. The Gray et al. rejection-free
    // approximation is exact for ranks 0-1 and systematically
    // over-samples ranks 2-5 by ~5-16%, which alone contributes ~400
    // here; the bound admits that known bias while staying orders of
    // magnitude below what a wrong zetan/eta/alpha would produce.
    double chi2 = 0.0;
    double tail_obs = static_cast<double>(draws);
    double tail_exp = static_cast<double>(draws);
    for (std::uint64_t r = 0; r < 64; ++r) {
        const double expected =
            zipf.mass(r) * static_cast<double>(draws);
        const double observed = static_cast<double>(counts[r]);
        chi2 += (observed - expected) * (observed - expected) / expected;
        tail_obs -= observed;
        tail_exp -= expected;
    }
    ASSERT_GT(tail_exp, 0.0);
    chi2 += (tail_obs - tail_exp) * (tail_obs - tail_exp) / tail_exp;
    EXPECT_LT(chi2, 1000.0)
        << "sampler diverges from analytic Zipf mass";

    // mass() itself is a distribution over the n ranks.
    double total = 0.0;
    for (std::uint64_t r = 0; r < n; ++r)
        total += zipf.mass(r);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfianSampler, DeterministicForSeedAndConfig)
{
    workload::ZipfianSampler zipf(4096, 0.99);
    Rng a(7), b(7);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(zipf.next(a), zipf.next(b));
}

// ---- generator determinism through the scenario runner ---------------

ScenarioConfig
serving_config(const std::string &name)
{
    ScenarioConfig config = ScenarioConfig{}
                                .with_workload(name)
                                .with_scale(0.2)
                                .with_measure_ops(15'000)
                                .with_warmup_ops(0);
    return config;
}

TEST(ServingDeterminism, KvTierIdenticalAcrossRepeatsAndSuiteThreads)
{
    const ScenarioConfig config = serving_config("kv_tier");
    ScenarioResult first = run_scenario(config);
    EXPECT_GE(first.victim_ops, 15'000u);
    EXPECT_GT(first.victim_rss_pages, 0u);

    ScenarioResult again = run_scenario(config);
    EXPECT_EQ(first.victim_cycles, again.victim_cycles);
    EXPECT_EQ(first.victim_ops, again.victim_ops);
    EXPECT_EQ(first.victim_rss_pages, again.victim_rss_pages);
    EXPECT_EQ(first.buddy_calls, again.buddy_calls);

    for (unsigned threads : {1u, 4u}) {
        ExperimentSuite suite("kv_threads");
        suite.add("kv", config, RunKind::Single);
        suite.add("kv-echo", config, RunKind::Single);
        SuiteOptions options;
        options.threads = threads;
        options.write_json = false;
        options.announce = false;
        SuiteResult result = suite.run(options);
        ASSERT_FALSE(result.at("kv").failed());
        EXPECT_EQ(result.at("kv").single.victim_cycles,
                  first.victim_cycles);
        EXPECT_EQ(result.at("kv-echo").single.victim_cycles,
                  first.victim_cycles);
    }
}

TEST(ServingDeterminism, KvTierStreamKeyedByWorkloadParams)
{
    // Same name/seed/scale but different generator knobs must give
    // different streams: the generator reads workload_params.
    ScenarioConfig few = serving_config("kv_tier");
    few.with_workload_param("value_lines", 2);
    ScenarioConfig many = serving_config("kv_tier");
    many.with_workload_param("value_lines", 12);
    ScenarioResult a = run_scenario(few);
    ScenarioResult b = run_scenario(many);
    EXPECT_NE(a.victim_cycles, b.victim_cycles);

    // And the same knobs run again stay bit-identical.
    ScenarioResult c = run_scenario(few);
    EXPECT_EQ(a.victim_cycles, c.victim_cycles);
}

TEST(ServingDeterminism, ForkStormBitIdenticalUnderArmedFaultPlan)
{
    ScenarioConfig config = serving_config("fork_storm");
    config.with_fault_plan(FaultPlan{}.periodic_pressure(5'000));

    ScenarioResult a = run_scenario(config);
    ScenarioResult b = run_scenario(config);
    EXPECT_TRUE(a.fault_plan_armed);
    EXPECT_GE(a.victim_ops, 15'000u);
    EXPECT_EQ(a.victim_cycles, b.victim_cycles);
    EXPECT_EQ(a.victim_ops, b.victim_ops);
    EXPECT_EQ(a.injected_denials, b.injected_denials);
    EXPECT_EQ(a.pressure_episodes, b.pressure_episodes);
    EXPECT_EQ(a.frames_reclaimed, b.frames_reclaimed);
    EXPECT_EQ(a.fallback_singles, b.fallback_singles);
}

// ---- dirty ring: pure observer when nothing consumes the estimate ----

TEST(DirtyRingObserver, ArmedRingNeverPerturbsTheSimulation)
{
    const ScenarioConfig disarmed = serving_config("ws_estimate");
    ScenarioConfig armed = disarmed;
    // Ring armed but feeding nothing: overcommit is off, so estimates
    // are computed and never consumed. Simulated state must not move.
    armed.with_dirty_ring(DirtyRingConfig{}
                              .with_ring_entries(128)
                              .with_epoch_ops(4096)
                              .with_reclaim_by_ws(false));

    ScenarioResult base = run_scenario(disarmed);
    ScenarioResult observed = run_scenario(armed);

    // The observer saw traffic...
    EXPECT_TRUE(observed.dirty_ring_armed);
    EXPECT_GT(observed.dirty_ring_logged, 0u);
    EXPECT_GE(observed.dirty_ring_epochs, 1u);
    EXPECT_GT(observed.ws_estimate_pages, 0u);
    // ...without changing a single simulated number.
    EXPECT_EQ(base.victim_cycles, observed.victim_cycles);
    EXPECT_EQ(base.victim_ops, observed.victim_ops);
    EXPECT_EQ(base.victim_rss_pages, observed.victim_rss_pages);
    EXPECT_EQ(base.buddy_calls, observed.buddy_calls);
    EXPECT_EQ(base.total_ops, observed.total_ops);

    // Disarmed runs keep the golden metric set: no ring keys appear.
    EXPECT_FALSE(base.dirty_ring_armed);
    EXPECT_FALSE(base.metrics.has("dirty_ring_logged"));
    EXPECT_FALSE(base.metrics.has("ws_estimate_pages"));
    EXPECT_TRUE(observed.metrics.has("ws_estimate_pages"));
}

}  // namespace
}  // namespace ptm::sim
