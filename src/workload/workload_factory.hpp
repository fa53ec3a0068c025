/**
 * @file
 * Workload generators by name — the third name table of the trio
 * (core/provider_factory.hpp for allocation policies,
 * pt/table_factory.hpp for translation structures, this one for the op
 * streams driving them).
 *
 * Workloads are chosen by name in ScenarioConfig ("pagerank",
 * "kv_tier", ...) with a WorkloadParams bag carrying generator-specific
 * knobs. The table is fixed and lives in catalog.cpp: the catalog
 * presets plus the serving tier (serving.hpp). Adding a generator is one
 * implementation plus one row there.
 *
 * Unknown names fail fast with a SimError listing every name.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/params.hpp"
#include "workload/workload.hpp"

namespace ptm::workload {

/// Generator knobs ride in the same insertion-ordered key/value bag as
/// policy knobs, and round-trip through BENCH_*.json the same way.
using WorkloadParams = PolicyParams;

/// Knobs shared by all generators.
struct WorkloadOptions {
    double scale = 1.0;        ///< footprint multiplier
    std::uint64_t seed = 1;    ///< RNG seed (combined with the name hash)
    std::uint64_t total_ops = 0;  ///< override compute-op budget (0: keep
                                  ///< the preset default / infinite)
    WorkloadParams params;     ///< generator-specific knobs; unknown keys
                               ///< are ignored by convention
};

/// @throws SimError listing every workload name if @p name is unknown.
void require_workload(const std::string &name);

/**
 * Construct the workload named @p name.
 * @throws SimError listing every workload name if @p name is unknown.
 */
std::unique_ptr<Workload>
make_workload(const std::string &name, const WorkloadOptions &options = {});

namespace detail {

/// Per-workload seed derivation shared by every generator. Part of the
/// stream identity: the golden snapshot depends on it, so the formula
/// must never change.
std::uint64_t mix_seed(const std::string &name, std::uint64_t seed);

}  // namespace detail

}  // namespace ptm::workload
