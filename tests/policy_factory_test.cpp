/**
 * @file
 * Factory/registry tests: the allocation-policy and translation-table
 * registries, their fail-fast error listings, the fluent ScenarioConfig
 * surface, the full {policy x table} scenario round-trip (through JSON),
 * and the hashed-vs-radix equivalence property test.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "mem/buddy_allocator.hpp"
#include "pt/hashed_page_table.hpp"
#include "pt/page_table.hpp"
#include "pt/table_factory.hpp"
#include "sim/suite.hpp"
#include "vm/guest_kernel.hpp"
#include "vm/provider_factory.hpp"

namespace ptm::sim {
namespace {

bool
contains(const std::vector<std::string> &names, const std::string &name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

// ---- registries ------------------------------------------------------

TEST(ProviderFactory, BuiltinPoliciesAreRegistered)
{
    const std::vector<std::string> names = vm::registered_providers();
    EXPECT_TRUE(contains(names, "buddy"));
    EXPECT_TRUE(contains(names, "ptemagnet"));
    EXPECT_TRUE(contains(names, "thp"));
    EXPECT_TRUE(contains(names, "reserve_thp"));
    EXPECT_GE(names.size(), 4u);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(TableFactory, BuiltinTablesAreRegistered)
{
    const std::vector<std::string> names = pt::registered_tables();
    EXPECT_TRUE(contains(names, "radix"));
    EXPECT_TRUE(contains(names, "hashed"));
    EXPECT_GE(names.size(), 2u);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ProviderFactory, UnknownPolicyFailsFastListingNames)
{
    vm::GuestKernel guest(1024);
    try {
        vm::make_provider("no_such_policy", &guest, {});
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("no_such_policy"), std::string::npos);
        EXPECT_NE(what.find("buddy"), std::string::npos);
        EXPECT_NE(what.find("ptemagnet"), std::string::npos);
        EXPECT_NE(what.find("reserve_thp"), std::string::npos);
        // The origin is named from the repository root, not the checkout.
        EXPECT_NE(what.find("(src/vm/provider_factory.cpp:"),
                  std::string::npos)
            << what;
    }
}

TEST(TableFactory, UnknownTableFailsFastListingNames)
{
    try {
        pt::make_table("no_such_table", pt::FrameSource{}, {});
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("no_such_table"), std::string::npos);
        EXPECT_NE(what.find("radix"), std::string::npos);
        EXPECT_NE(what.find("hashed"), std::string::npos);
    }
}

TEST(ProviderFactory, EveryRegisteredPolicyConstructs)
{
    for (const std::string &name : vm::registered_providers()) {
        vm::GuestKernel guest(4 * 1024);
        std::unique_ptr<vm::PhysicalPageProvider> provider =
            vm::make_provider(name, &guest, {});
        ASSERT_NE(provider, nullptr) << name;
    }
}

TEST(TableFactory, EveryRegisteredTableConstructsAndMaps)
{
    for (const std::string &name : pt::registered_tables()) {
        mem::BuddyAllocator buddy(0, 4096);
        pt::FrameSource source{
            .allocate = [&buddy]() { return buddy.allocate_frame(); },
            .release = [&buddy](std::uint64_t f) { buddy.free(f); },
        };
        std::unique_ptr<pt::TranslationTable> table =
            pt::make_table(name, source, {});
        ASSERT_NE(table, nullptr) << name;
        EXPECT_EQ(table->name(), name);
        EXPECT_TRUE(table->map(42, {.writable = true, .frame = 7}));
        auto pte = table->lookup(42);
        ASSERT_TRUE(pte.has_value()) << name;
        EXPECT_EQ(pte->frame(), 7u) << name;
    }
}

// ---- fluent config + fail-fast --------------------------------------

TEST(ScenarioConfigFluent, PolicyAndTableByName)
{
    ScenarioConfig config = ScenarioConfig{}
                                .with_policy("reserve_thp")
                                .with_policy_param("promotion_threshold", 64)
                                .with_table("hashed")
                                .with_table_param("initial_frames", 8);
    EXPECT_EQ(config.resolved_policy(), "reserve_thp");
    EXPECT_EQ(config.resolved_policy_params().get_u64(
                  "promotion_threshold"),
              64u);
    EXPECT_EQ(config.resolved_table(), "hashed");
    EXPECT_EQ(config.platform.table_params.get_u64("initial_frames"), 8u);
}

TEST(ScenarioConfigFluent, UnknownNamesThrowAtConfigTime)
{
    EXPECT_THROW(ScenarioConfig{}.with_policy("no_such_policy"), SimError);
    EXPECT_THROW(ScenarioConfig{}.with_table("no_such_table"), SimError);
}

TEST(ScenarioConfigFluent, PolicyNameResolution)
{
    ScenarioConfig config;
    // An unset name resolves to the buddy baseline.
    EXPECT_EQ(config.resolved_policy(), "buddy");
    config.policy_name = "ptemagnet";
    EXPECT_EQ(config.resolved_policy(), "ptemagnet");
    // reservation_pages folds into the param bag for ptemagnet runs.
    config.reservation_pages = 16;
    EXPECT_EQ(config.resolved_policy_params().get_u64("group_pages"),
              16u);
}

TEST(SuiteSweep, TextAxisSweepsPoliciesAndTables)
{
    ExperimentSuite suite("zoo_axes");
    suite.sweep("p", "policy",
                std::vector<std::string>{"buddy", "ptemagnet",
                                         "reserve_thp"},
                ScenarioConfig{});
    suite.sweep("t", "table",
                std::vector<std::string>{"radix", "hashed"},
                ScenarioConfig{});
    ASSERT_EQ(suite.size(), 5u);
    EXPECT_EQ(suite.entries()[0].config.resolved_policy(), "buddy");
    EXPECT_EQ(suite.entries()[2].config.resolved_policy(), "reserve_thp");
    EXPECT_EQ(suite.entries()[2].sweep_text, "reserve_thp");
    EXPECT_EQ(suite.entries()[4].config.resolved_table(), "hashed");
    EXPECT_EQ(suite.entries()[4].name, "t/table=hashed");
}

TEST(SuiteSweep, UnknownTextValueFailsFast)
{
    ExperimentSuite suite("zoo_bad");
    EXPECT_THROW(
        suite.sweep("p", "policy",
                    std::vector<std::string>{"no_such_policy"},
                    ScenarioConfig{}),
        SimError);
}

// ---- scenario round-trip over the whole zoo -------------------------

ScenarioConfig
tiny_config()
{
    ScenarioConfig config = ScenarioConfig{}
                                .with_victim("pagerank")
                                .with_corunner("objdet", 1)
                                .with_scale(0.05)
                                .with_measure_ops(5'000)
                                .with_warmup_ops(1'000);
    config.platform.guest_frames = 16 * 1024;
    config.platform.host_frames = 24 * 1024;
    return config;
}

TEST(PolicyZoo, EveryPolicyTableComboRunsAndRoundTrips)
{
    for (const std::string &policy : vm::registered_providers()) {
        for (const std::string &table : pt::registered_tables()) {
            ScenarioConfig config =
                tiny_config().with_policy(policy).with_table(table);
            ScenarioResult result = run_scenario(config);
            EXPECT_GT(result.victim_ops, 0u) << policy << "+" << table;
            EXPECT_GT(result.victim_cycles, 0u) << policy << "+" << table;

            // Config JSON carries the factory names.
            Json cfg = to_json(config);
            EXPECT_EQ(cfg.at("policy").as_string(), policy);
            EXPECT_EQ(cfg.at("table").as_string(), table);

            // Result JSON round-trips, including the bloat axis.
            ScenarioResult back =
                scenario_result_from_json(to_json(result));
            EXPECT_EQ(back.victim_cycles, result.victim_cycles);
            EXPECT_EQ(back.victim_ops, result.victim_ops);
            EXPECT_EQ(back.provider_held_pages,
                      result.provider_held_pages);
            EXPECT_EQ(back.metrics.get("page_walk_cycles"),
                      result.metrics.get("page_walk_cycles"));
        }
    }
}

TEST(PolicyZoo, ReserveThpHoldsFramesAndPromotes)
{
    ScenarioConfig config = tiny_config()
                                .with_policy("reserve_thp")
                                .with_policy_param("promotion_threshold", 8);
    ScenarioResult result = run_scenario(config);
    EXPECT_GT(result.victim_ops, 0u);
    // The provider reports its parked frames as the bloat axis, and its
    // registry subtree exists.
    ASSERT_TRUE(result.stats.has("vm0.provider.reservations_created"));
    EXPECT_GT(result.stats.value("vm0.provider.reservations_created"),
              0.0);
    ASSERT_TRUE(result.stats.has("vm0.provider.promotions"));
    EXPECT_GT(result.stats.value("vm0.provider.promotions") +
                  static_cast<double>(result.provider_held_pages),
              0.0);
}

// ---- hashed vs radix equivalence property test ----------------------

class EquivalenceHarness {
  public:
    EquivalenceHarness()
        : radix_buddy_(0, 16 * 1024), hashed_buddy_(0, 16 * 1024),
          radix_(pt::FrameSource{
              .allocate =
                  [this]() { return radix_buddy_.allocate_frame(); },
              .release =
                  [this](std::uint64_t f) { radix_buddy_.free(f); },
          }),
          hashed_(pt::FrameSource{
              .allocate =
                  [this]() { return hashed_buddy_.allocate_frame(); },
              .release =
                  [this](std::uint64_t f) { hashed_buddy_.free(f); },
          })
    {
    }

    mem::BuddyAllocator radix_buddy_;
    mem::BuddyAllocator hashed_buddy_;
    pt::PageTable radix_;
    pt::HashedPageTable hashed_;
    std::map<std::uint64_t, std::uint64_t> reference_;
};

TEST(HashedVsRadix, RandomOperationSequencesStayEquivalent)
{
    for (std::uint64_t seed : {101u, 202u, 303u, 404u}) {
        EquivalenceHarness h;
        Rng rng(seed);
        for (int step = 0; step < 5000; ++step) {
            const std::uint64_t vpn = rng.below(1ull << 20);
            const std::uint64_t dice = rng.below(10);
            if (dice < 6) {
                const std::uint64_t frame = rng.below(1ull << 30);
                pt::PteFields fields{.writable = true, .frame = frame};
                EXPECT_TRUE(h.radix_.map(vpn, fields));
                EXPECT_TRUE(h.hashed_.map(vpn, fields));
                h.reference_[vpn] = frame;
            } else if (dice < 8) {
                h.radix_.unmap(vpn);
                h.hashed_.unmap(vpn);
                h.reference_.erase(vpn);
            } else {
                auto expect = h.reference_.find(vpn);
                auto r = h.radix_.lookup(vpn);
                auto g = h.hashed_.lookup(vpn);
                ASSERT_EQ(r.has_value(), expect != h.reference_.end());
                ASSERT_EQ(g.has_value(), expect != h.reference_.end());
                if (expect != h.reference_.end()) {
                    EXPECT_EQ(r->frame(), expect->second);
                    EXPECT_EQ(g->frame(), expect->second);
                }
            }
        }

        // Full sweep: every reference entry visible through both tables
        // and through their walk() paths.
        EXPECT_EQ(h.hashed_.entry_count(), h.reference_.size());
        for (const auto &[vpn, frame] : h.reference_) {
            pt::WalkSteps steps;
            pt::WalkResult rw = h.radix_.walk(vpn, steps);
            ASSERT_TRUE(rw.complete);
            EXPECT_EQ(steps[rw.steps - 1].pte.frame(), frame);
            pt::WalkResult hw = h.hashed_.walk(vpn, steps);
            ASSERT_TRUE(hw.complete);
            EXPECT_EQ(steps[hw.steps - 1].pte.frame(), frame);
            EXPECT_LE(hw.steps, pt::kMaxWalkSteps);
        }

        // Walks of never-mapped pages end incomplete on both tables.
        for (int probe = 0; probe < 64; ++probe) {
            const std::uint64_t vpn =
                (1ull << 21) + rng.below(1ull << 20);
            if (h.reference_.count(vpn) != 0)
                continue;
            pt::WalkSteps steps;
            EXPECT_FALSE(h.radix_.walk(vpn, steps).complete);
            EXPECT_FALSE(h.hashed_.walk(vpn, steps).complete);
        }
    }
}

TEST(HashedVsRadix, TinyScenarioProducesIdenticalTranslations)
{
    // Same workload, same seed, same policy — only the translation
    // structure differs. Walk *latencies* differ by design; the
    // architectural outcome (victim ops, RSS, data accesses) must not.
    ScenarioConfig radix = tiny_config();
    ScenarioConfig hashed = tiny_config().with_table("hashed");
    ScenarioResult r = run_scenario(radix);
    ScenarioResult h = run_scenario(hashed);
    EXPECT_EQ(r.victim_ops, h.victim_ops);
    EXPECT_EQ(r.victim_rss_pages, h.victim_rss_pages);
    EXPECT_EQ(r.metrics.get("cache_misses") >= 0.0, true);
}

}  // namespace
}  // namespace ptm::sim
