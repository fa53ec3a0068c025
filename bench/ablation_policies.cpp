/**
 * @file
 * Policy & page-table zoo: the factory-backed ablation suite.
 *
 * Sweeps every allocation policy (core::provider_names: buddy,
 * ptemagnet, reserve_thp, thp) against every translation structure
 * (pt::table_names: hashed, radix) for each victim workload — the full
 * {policy x table x workload} cross product, one Single run per cell.
 * Nothing here names a concrete provider or table class: a policy added
 * to the name table tomorrow shows up in this ablation automatically.
 *
 * Output is BENCH_policy_zoo.json: the standard suite document plus a
 * "ranking" block that orders every cell of each workload along the
 * three axes the paper trades off — nested-walk cycles (§4), host-PT
 * fragmentation (§3.2), and memory bloat (§2.3/§6.2, measured as frames
 * the provider holds without mapping them).
 *
 * With --smoke (or PTM_SMOKE=1) the sweep shrinks to ctest size: one
 * workload, tiny scale — enough to prove every combination constructs,
 * runs, and ranks.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/provider_factory.hpp"
#include "pt/table_factory.hpp"
#include "sim/suite.hpp"

namespace {

using namespace ptm;
using namespace ptm::sim;

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "ablation_policies: FAIL: %s\n", what);
        ++failures;
    }
}

/// One cell of the cross product, flattened for ranking.
struct Cell {
    std::string victim;
    std::string policy;
    std::string table;
    double walk_cycles = 0.0;
    double host_pt_fragmentation = 0.0;
    std::uint64_t memory_bloat_pages = 0;
    std::uint64_t victim_rss_pages = 0;
};

Json
cell_json(const Cell &cell)
{
    Json j = Json::object();
    j.set("policy", cell.policy);
    j.set("table", cell.table);
    j.set("walk_cycles", cell.walk_cycles);
    j.set("host_pt_fragmentation", cell.host_pt_fragmentation);
    j.set("memory_bloat_pages", cell.memory_bloat_pages);
    j.set("victim_rss_pages", cell.victim_rss_pages);
    return j;
}

/// Cells of one victim sorted ascending by @p key (lower is better on
/// every axis), serialized in rank order.
template <typename Key>
Json
ranked(std::vector<Cell> cells, Key key)
{
    std::sort(cells.begin(), cells.end(),
              [&key](const Cell &a, const Cell &b) {
                  return key(a) < key(b);
              });
    Json arr = Json::array();
    for (const Cell &cell : cells)
        arr.push_back(cell_json(cell));
    return arr;
}

}  // namespace

int
main(int argc, char **argv)
{
    bool smoke = std::getenv("PTM_SMOKE") != nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }

    const std::vector<std::string> policies = core::provider_names();
    const std::vector<std::string> tables = pt::table_names();
    const std::vector<std::string> victims =
        smoke ? std::vector<std::string>{"pagerank"}
              : std::vector<std::string>{"pagerank", "gcc"};

    check(policies.size() >= 4, "at least 4 policies");
    check(tables.size() >= 2, "at least 2 tables");

    ExperimentSuite suite("policy_zoo");
    for (const std::string &victim : victims) {
        for (const std::string &policy : policies) {
            for (const std::string &table : tables) {
                ScenarioConfig config =
                    ScenarioConfig{}
                        .with_victim(victim)
                        .with_corunner("objdet", 2)
                        .with_policy(policy)
                        .with_table(table)
                        .with_scale(smoke ? 0.05 : 0.25)
                        .with_measure_ops(smoke ? 20'000 : 300'000)
                        .with_warmup_ops(smoke ? 5'000 : 50'000);
                if (smoke) {
                    config.platform.guest_frames = 16 * 1024;
                    config.platform.host_frames = 24 * 1024;
                }
                suite.add(victim + "/" + policy + "+" + table,
                          std::move(config), RunKind::Single);
            }
        }
    }

    SuiteOptions options;
    options.write_json = false;  // written below, with the ranking block
    SuiteResult result = suite.run(options);
    check(result.failed_count() == 0, "every cell completed");

    // Flatten per victim and print the stdout table.
    std::printf("%-10s %-12s %-7s %14s %8s %12s\n", "victim", "policy",
                "table", "walk cycles", "frag", "bloat pages");
    Json ranking = Json::object();
    for (const std::string &victim : victims) {
        std::vector<Cell> cells;
        for (const EntryResult &entry : result.entries()) {
            if (entry.entry.name.rfind(victim + "/", 0) != 0 ||
                entry.failed())
                continue;
            const ScenarioResult &run = entry.single;
            Cell cell;
            cell.victim = victim;
            cell.policy = entry.entry.config.resolved_policy();
            cell.table = entry.entry.config.resolved_table();
            cell.walk_cycles = run.metrics.get("page_walk_cycles");
            cell.host_pt_fragmentation =
                run.metrics.get("host_pt_fragmentation");
            cell.memory_bloat_pages = run.provider_held_pages;
            cell.victim_rss_pages = run.victim_rss_pages;
            cells.push_back(std::move(cell));
            std::printf("%-10s %-12s %-7s %14.0f %8.2f %12llu\n",
                        victim.c_str(), cells.back().policy.c_str(),
                        cells.back().table.c_str(),
                        cells.back().walk_cycles,
                        cells.back().host_pt_fragmentation,
                        static_cast<unsigned long long>(
                            cells.back().memory_bloat_pages));
        }
        check(cells.size() == policies.size() * tables.size(),
              "every policy x table cell present for the victim");

        Json axes = Json::object();
        axes.set("by_walk_cycles",
                 ranked(cells, [](const Cell &c) {
                     return c.walk_cycles;
                 }));
        axes.set("by_host_pt_fragmentation",
                 ranked(cells, [](const Cell &c) {
                     return c.host_pt_fragmentation;
                 }));
        axes.set("by_memory_bloat", ranked(cells, [](const Cell &c) {
                     return static_cast<double>(c.memory_bloat_pages);
                 }));
        ranking.set(victim, std::move(axes));
    }

    Json doc = result.to_json();
    doc.set("policies", static_cast<std::uint64_t>(policies.size()));
    doc.set("tables", static_cast<std::uint64_t>(tables.size()));
    doc.set("ranking", std::move(ranking));

    std::printf("ablation_policies: results -> %s\n",
                result.write_json(doc).c_str());

    if (failures == 0)
        std::printf("ablation_policies: OK (%s mode)\n",
                    smoke ? "smoke" : "full");
    return failures == 0 ? 0 : 1;
}
