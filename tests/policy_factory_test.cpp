/**
 * @file
 * Factory tests: the allocation-policy and translation-table name
 * tables, their fail-fast error listings, the fluent ScenarioConfig
 * surface, the full {policy x table} scenario run and its JSON, and the
 * hashed-vs-radix equivalence property test.
 */
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/provider_factory.hpp"
#include "mem/buddy_allocator.hpp"
#include "pt/hashed_page_table.hpp"
#include "pt/page_table.hpp"
#include "pt/table_factory.hpp"
#include "sim/suite.hpp"
#include "vm/guest_kernel.hpp"

namespace ptm::sim {
namespace {

/// The SimError message @p fn throws; fails the test if it throws none.
template <typename Fn>
std::string
error_of(Fn fn)
{
    try {
        fn();
    } catch (const SimError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected SimError";
    return "";
}

// ---- name tables -----------------------------------------------------

TEST(ProviderFactory, BuiltinPoliciesAreRegistered)
{
    // The order ablation_policies enumerates.
    EXPECT_EQ(core::provider_names(),
              (std::vector<std::string>{"buddy", "ptemagnet",
                                        "reserve_thp", "thp"}));
}

TEST(TableFactory, BuiltinTablesAreRegistered)
{
    EXPECT_EQ(pt::table_names(),
              (std::vector<std::string>{"hashed", "radix"}));
}

TEST(ProviderFactory, UnknownPolicyFailsFastListingNames)
{
    vm::GuestKernel guest(1024);
    const std::string what = error_of(
        [&guest]() { core::make_provider("no_such_policy", &guest, {}); });
    EXPECT_NE(what.find("no_such_policy"), std::string::npos);
    EXPECT_NE(what.find("buddy, ptemagnet, reserve_thp, thp"),
              std::string::npos)
        << what;
    // The origin is named from the repository root, not the checkout.
    EXPECT_NE(what.find("(src/core/provider_factory.cpp:"),
              std::string::npos)
        << what;
    // Config-build time and the system fail from that same place.
    EXPECT_EQ(error_of([]() {
                  ScenarioConfig{}.with_policy("no_such_policy");
              }),
              what);
    EXPECT_EQ(error_of([]() {
                  System system(PlatformConfig{}, 1);
                  system.set_policy("no_such_policy");
              }),
              what);
}

TEST(TableFactory, UnknownTableFailsFastListingNames)
{
    const std::string what = error_of(
        []() { pt::make_table("no_such_table", pt::FrameSource{}); });
    EXPECT_NE(what.find("no_such_table"), std::string::npos);
    EXPECT_NE(what.find("hashed, radix"), std::string::npos) << what;
    EXPECT_NE(what.find("(src/pt/table_factory.cpp:"), std::string::npos)
        << what;
    // Config-build time and both kernels fail from that same place.
    EXPECT_EQ(error_of([]() {
                  ScenarioConfig{}.with_table("no_such_table");
              }),
              what);
    EXPECT_EQ(error_of([]() {
                  vm::GuestKernel guest(1024);
                  guest.set_translation_table("no_such_table");
              }),
              what);
    EXPECT_EQ(error_of([]() {
                  host::HostKernel host(1024);
                  host.set_translation_table("no_such_table");
              }),
              what);
}

TEST(ProviderFactory, EveryRegisteredPolicyConstructs)
{
    for (const std::string &name : core::provider_names()) {
        vm::GuestKernel guest(4 * 1024);
        std::unique_ptr<vm::PhysicalPageProvider> provider =
            core::make_provider(name, &guest, {});
        ASSERT_NE(provider, nullptr) << name;
    }
}

TEST(TableFactory, EveryRegisteredTableConstructsAndMaps)
{
    for (const std::string &name : pt::table_names()) {
        mem::BuddyAllocator buddy(0, 4096);
        pt::FrameSource source{
            .allocate = [&buddy]() { return buddy.allocate_frame(); },
            .release = [&buddy](std::uint64_t f) { buddy.free(f); },
        };
        std::unique_ptr<pt::TranslationTable> table =
            pt::make_table(name, source);
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
                                .with_table("hashed");
    EXPECT_EQ(config.resolved_policy(), "reserve_thp");
    EXPECT_EQ(config.resolved_policy_params().get_u64(
                  "promotion_threshold"),
              64u);
    EXPECT_EQ(config.resolved_table(), "hashed");
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
    for (const std::string &policy : core::provider_names()) {
        for (const std::string &table : pt::table_names()) {
            ScenarioConfig config =
                tiny_config().with_policy(policy).with_table(table);
            ScenarioResult result = run_scenario(config);
            EXPECT_GT(result.victim_ops, 0u) << policy << "+" << table;
            EXPECT_GT(result.victim_cycles, 0u) << policy << "+" << table;

            // Config JSON carries the factory names.
            Json cfg = to_json(config);
            EXPECT_EQ(cfg.at("policy").as_string(), policy);
            EXPECT_EQ(cfg.at("table").as_string(), table);

            // Result JSON carries the run, including the bloat axis, and
            // parses back to the same document.
            Json doc = to_json(result);
            EXPECT_EQ(doc.at("victim_cycles").as_u64(),
                      result.victim_cycles);
            EXPECT_EQ(doc.at("victim_ops").as_u64(), result.victim_ops);
            EXPECT_EQ(doc.at("provider_held_pages").as_u64(),
                      result.provider_held_pages);
            EXPECT_EQ(doc.at("metrics").at("page_walk_cycles").as_double(),
                      result.metrics.get("page_walk_cycles"));
            EXPECT_EQ(Json::parse(doc.dump()).dump(), doc.dump());
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

TEST(HashedPageTableDeathTest, TagCollisionPanics)
{
    mem::BuddyAllocator buddy(0, 64);
    pt::HashedPageTable table(pt::FrameSource{
        .allocate = [&buddy]() { return buddy.allocate_frame(); },
        .release = [&buddy](std::uint64_t f) { buddy.free(f); },
    });
    // The largest vpn with a tag maps, walks and unmaps like any other.
    const std::uint64_t top = ~std::uint64_t{0} - 2;
    ASSERT_TRUE(table.map(top, {.frame = 9}));
    pt::WalkSteps steps;
    pt::WalkResult walk = table.walk(top, steps);
    ASSERT_TRUE(walk.complete);
    EXPECT_EQ(steps[walk.steps - 1].pte.frame(), 9u);
    table.unmap(top);
    EXPECT_FALSE(table.lookup(top).has_value());
    // vpn + 1 would read as the empty tag (0) or the tombstone (~0).
    EXPECT_DEATH(table.map(~std::uint64_t{0}, {.frame = 1}),
                 "vpn 18446744073709551615 has no tag");
    EXPECT_DEATH(table.map(~std::uint64_t{0} - 1, {.frame = 1}),
                 "vpn 18446744073709551614 has no tag");
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
