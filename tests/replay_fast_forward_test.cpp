/**
 * @file
 * Replay fast-forward tests: a .ptt replay whose warmup/init phases run
 * functionally (ScenarioConfig::replay_fast_forward) must produce
 * measured-phase results bit-identical to a full-fidelity replay that
 * flushes microarchitectural state at the same boundary
 * (cold_measurement) — across policies and translation tables — and the
 * config validation must reject unsupported combinations.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/error.hpp"
#include "sim/experiment.hpp"

namespace ptm::sim {
namespace {

ScenarioConfig
tiny_config()
{
    ScenarioConfig config = ScenarioConfig{}
                                .with_victim("pagerank")
                                .with_corunner("stress-ng", 1)
                                .with_warmup_ops(2'000)
                                .with_scale(0.05)
                                .with_measure_ops(4'000)
                                .with_seed(29);
    config.platform.guest_frames = 16 * 1024;
    config.platform.host_frames = 24 * 1024;
    return config;
}

/**
 * Measured-phase identity: every result field derived from the
 * measurement window or from functional (mapping/allocator) state must
 * match exactly. Lifetime-scoped microarchitectural counters (cache and
 * TLB structure stats, hashed-table probes) legitimately differ — the
 * fast-forwarded run never exercises them during init — so the stats
 * comparison covers the Measurement-scoped path families instead of the
 * whole snapshot.
 */
void
expect_measured_identical(const ScenarioResult &a, const ScenarioResult &b,
                          const std::string &label)
{
    EXPECT_EQ(a.victim_cycles, b.victim_cycles) << label;
    EXPECT_EQ(a.victim_ops, b.victim_ops) << label;
    EXPECT_EQ(a.victim_rss_pages, b.victim_rss_pages) << label;
    EXPECT_EQ(a.total_ops, b.total_ops) << label;
    EXPECT_EQ(a.fragmentation.average_hpte_lines,
              b.fragmentation.average_hpte_lines)
        << label;
    EXPECT_EQ(a.fragmentation.fragmented_fraction,
              b.fragmentation.fragmented_fraction)
        << label;
    EXPECT_EQ(a.peak_unused_reservation_fraction,
              b.peak_unused_reservation_fraction)
        << label;
    EXPECT_EQ(a.reservations_created, b.reservations_created) << label;
    EXPECT_EQ(a.buddy_calls, b.buddy_calls) << label;
    EXPECT_EQ(a.provider_held_pages, b.provider_held_pages) << label;
    EXPECT_EQ(a.oom_events, b.oom_events) << label;

    const auto &am = a.metrics.values();
    const auto &bm = b.metrics.values();
    ASSERT_EQ(am.size(), bm.size()) << label;
    for (const auto &[name, value] : am) {
        auto it = bm.find(name);
        ASSERT_NE(it, bm.end()) << label << ": " << name;
        EXPECT_EQ(value, it->second) << label << ": " << name;
    }

    const auto measurement_scoped = [](const std::string &path) {
        return path.find(".job.") != std::string::npos ||
               path.find(".walker.") != std::string::npos;
    };
    ASSERT_EQ(a.stats.size(), b.stats.size()) << label;
    unsigned compared = 0;
    for (std::size_t i = 0; i < a.stats.entries().size(); ++i) {
        const auto &ea = a.stats.entries()[i];
        const auto &eb = b.stats.entries()[i];
        ASSERT_EQ(ea.path, eb.path) << label;
        if (!measurement_scoped(ea.path))
            continue;
        ++compared;
        if (ea.is_histogram) {
            EXPECT_EQ(ea.histogram.count, eb.histogram.count)
                << label << ": " << ea.path;
            EXPECT_EQ(ea.histogram.sum, eb.histogram.sum)
                << label << ": " << ea.path;
        } else {
            EXPECT_EQ(ea.value, eb.value) << label << ": " << ea.path;
        }
    }
    EXPECT_GT(compared, 0u) << label;
}

TEST(ReplayFastForward, MeasuredPhaseIdenticalToColdFullFidelityRun)
{
    const std::string path = "replay_ff_identity.ptt";
    ScenarioConfig config = tiny_config();
    run_scenario(ScenarioConfig(config).with_trace_record(path));

    ScenarioResult cold = run_scenario(
        ScenarioConfig(config).with_trace_replay(path).with_cold_measurement());
    ScenarioResult fast =
        run_scenario(ScenarioConfig(config)
                         .with_trace_replay(path)
                         .with_replay_fast_forward());
    expect_measured_identical(cold, fast, "buddy-leg");

    // The same trace must fast-forward the PTEMagnet leg too: fault
    // order — hence allocation and reservation state — is preserved.
    ScenarioResult magnet_cold = run_scenario(ScenarioConfig(config)
                                                  .with_ptemagnet()
                                                  .with_trace_replay(path)
                                                  .with_cold_measurement());
    ScenarioResult magnet_fast =
        run_scenario(ScenarioConfig(config)
                         .with_ptemagnet()
                         .with_trace_replay(path)
                         .with_replay_fast_forward());
    expect_measured_identical(magnet_cold, magnet_fast, "magnet-leg");
    EXPECT_GT(magnet_fast.reservations_created, 0u);

    std::remove(path.c_str());
}

TEST(ReplayFastForward, HashedTablesFastForwardIdentically)
{
    // The functional slow path drives TranslationTable::walk() directly;
    // the hashed table's probe-sequence walks (and its growth/rehash
    // behaviour under fault-ordered insertion) must replay identically.
    const std::string path = "replay_ff_hashed.ptt";
    ScenarioConfig config = tiny_config().with_table("hashed");
    run_scenario(ScenarioConfig(config).with_trace_record(path));

    ScenarioResult cold = run_scenario(
        ScenarioConfig(config).with_trace_replay(path).with_cold_measurement());
    ScenarioResult fast =
        run_scenario(ScenarioConfig(config)
                         .with_trace_replay(path)
                         .with_replay_fast_forward());
    expect_measured_identical(cold, fast, "hashed-leg");
    std::remove(path.c_str());
}

TEST(ReplayFastForward, RequiresReplayAndExcludedInit)
{
    ScenarioConfig config = tiny_config().with_replay_fast_forward();
    // No trace to replay: the init phase would have to be simulated.
    EXPECT_THROW(run_scenario(config), SimError);

    const std::string path = "replay_ff_validate.ptt";
    run_scenario(ScenarioConfig(tiny_config()).with_trace_record(path));
    // measure_init contradicts skipping the init phase's timing.
    EXPECT_THROW(run_scenario(ScenarioConfig(tiny_config())
                                  .with_trace_replay(path)
                                  .with_replay_fast_forward()
                                  .with_measure_init()),
                 SimError);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace ptm::sim
