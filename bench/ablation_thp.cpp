/**
 * @file
 * Ablation (paper §2.3): PTEMagnet vs a THP-like eager 2 MiB backing
 * policy vs the default kernel.
 *
 * Two experiments:
 *  1. Dense workload (pagerank + objdet): both alternatives restore
 *     contiguity, so both speed up walks — THP is not *worse* on this
 *     axis; the paper's argument against it is elsewhere.
 *  2. Sparse application (touches every 16th page of a large mapping):
 *     THP backs 512 frames per touched region (huge internal
 *     fragmentation), while PTEMagnet reserves only 8 — and can return
 *     even those under pressure. This is the §2.3/§6.2 memory-overhead
 *     argument, quantified.
 */
#include <cstdio>
#include <memory>
#include <string>

#include "core/provider_factory.hpp"
#include "core/ptemagnet_provider.hpp"
#include "sim/suite.hpp"

namespace {

using namespace ptm;

/// Display label of each swept factory-name policy.
const char *
policy_label(const std::string &policy)
{
    if (policy == "buddy")
        return "default buddy";
    if (policy == "ptemagnet")
        return "PTEMagnet";
    if (policy == "thp")
        return "THP-like eager";
    return policy.c_str();
}

const char *const kPolicies[] = {"buddy", "ptemagnet", "thp"};

/// @return the number of failed suite entries.
std::size_t
dense_experiment()
{
    using namespace ptm::sim;

    ExperimentSuite suite("ablation_thp");
    for (const char *policy : kPolicies) {
        suite.add(policy_label(policy),
                  ScenarioConfig{}
                      .with_victim("pagerank")
                      .with_corunner_preset("objdet8")
                      .with_policy(policy)
                      .with_scale(0.5)
                      .with_measure_ops(300'000)
                      .with_warmup_ops(0),
                  RunKind::Single);
    }
    SuiteResult result = suite.run();

    std::printf("Dense workload (pagerank + 8x objdet), 300k measured "
                "ops:\n");
    std::printf("%-16s %8s %14s %16s\n", "policy", "frag", "cycles/op",
                "victim rss pages");
    for (const EntryResult &entry : result.entries()) {
        const ScenarioResult &run = entry.single;
        double cpo = static_cast<double>(run.victim_cycles) /
                     static_cast<double>(run.victim_ops);
        std::printf("%-16s %8.2f %14.1f %16llu\n",
                    entry.entry.name.c_str(),
                    run.fragmentation.average_hpte_lines, cpo,
                    static_cast<unsigned long long>(run.victim_rss_pages));
    }
    return result.failed_count();
}

/**
 * Not a scenario: drives a bare GuestKernel to count frames consumed for
 * a sparse mapping under each provider, outside any measurement loop.
 */
void
sparse_experiment()
{
    std::printf("\nSparse application: 32 MiB mapping, every 16th page "
                "touched:\n");
    std::printf("%-16s %14s %18s %22s\n", "policy", "touched",
                "frames consumed", "overhead vs touched");

    for (const std::string policy : kPolicies) {
        vm::GuestKernel guest(64 * 1024);
        core::PtemagnetProvider *magnet = nullptr;
        if (policy != "buddy") {
            auto provider = core::make_provider(policy, &guest, {});
            magnet =
                dynamic_cast<core::PtemagnetProvider *>(provider.get());
            guest.set_provider(std::move(provider));
        }

        vm::Process &app = guest.create_process("sparse");
        Addr base = app.vas().mmap(32ull * 1024 * 1024);
        std::uint64_t touched = 0;
        for (std::uint64_t page = 0; page < 8192; page += 16) {
            if (!app.page_table().lookup(page_number(base) + page))
                guest.handle_fault(app, page_number(base) + page);
            ++touched;
        }

        std::uint64_t consumed =
            guest.buddy().allocated_frames_count();
        std::printf("%-16s %14llu %18llu %21.1fx\n", policy_label(policy),
                    static_cast<unsigned long long>(touched),
                    static_cast<unsigned long long>(consumed),
                    static_cast<double>(consumed) /
                        static_cast<double>(touched));

        if (magnet != nullptr) {
            std::uint64_t reclaimed = magnet->reclaim(1u << 30);
            std::printf("%-16s reservation daemon can return %llu frames "
                        "under pressure\n", "",
                        static_cast<unsigned long long>(reclaimed));
        }
    }
    std::printf("\n(the THP consumed count includes 512 frames per "
                "touched 2 MiB region —\nthe internal fragmentation that "
                "keeps THP disabled in clouds, §2.3; PTEMagnet's\n"
                "8-frame reservations cost 16x less and are reclaimable "
                "without PT surgery.)\n");
}

}  // namespace

int
main()
{
    std::printf("Ablation: PTEMagnet vs THP-like eager backing\n\n");
    const std::size_t failed = dense_experiment();
    sparse_experiment();
    return failed == 0 ? 0 : 1;
}
