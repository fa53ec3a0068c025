/**
 * @file
 * String-keyed registry of workload generators — the third factory of
 * the trio (vm::provider_factory for allocation policies,
 * pt::table_factory for translation structures, this one for the op
 * streams driving them).
 *
 * Workloads are chosen by name in ScenarioConfig ("pagerank",
 * "kv_tier", ...) with a WorkloadParams bag carrying generator-specific
 * knobs, so new generators need no catalog edits and become sweepable by
 * the suite "workload" axis immediately. The catalog presets
 * (catalog.cpp) and the serving tier (serving.cpp) register themselves
 * here; other generators call register_workload().
 *
 * Unknown names fail fast with a SimError listing every registered name.
 */
#pragma once

#include <cstdint>
#include <functional>
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

/// Constructor signature for registered workloads. The registered name is
/// captured by the ctor itself (it seeds the generator's RNG).
using WorkloadCtor =
    std::function<std::unique_ptr<Workload>(const WorkloadOptions &)>;

/// Register @p ctor under @p name; replaces an existing registration.
void register_workload(const std::string &name, WorkloadCtor ctor);

/// True iff @p name has a registered constructor.
bool workload_registered(const std::string &name);

/**
 * Construct the workload registered under @p name.
 * @throws SimError listing registered names if @p name is unknown.
 */
std::unique_ptr<Workload>
make_workload(const std::string &name, const WorkloadOptions &options = {});

namespace detail {

/// Built-in registration hooks, referenced by name from the factory so a
/// static-library link can never dead-strip the catalog or serving TU.
void register_catalog_workloads();
void register_serving_workloads();

/// Per-workload seed derivation shared by every registered generator.
/// Part of the stream identity: the golden snapshot depends on it, so
/// the formula must never change.
std::uint64_t mix_seed(const std::string &name, std::uint64_t seed);

}  // namespace detail

}  // namespace ptm::workload
