/**
 * @file
 * StreamCache: an inert shim kept only because the perfbench scenario
 * program calls it. Every job runs its own generator; nothing is
 * recorded, cached or replayed.
 */
#pragma once

#include <memory>
#include <string>

#include "workload/workload.hpp"

namespace ptm::workload {

struct WorkloadOptions;

/**
 * The four calls the perfbench scenario program makes: enabled() is
 * false, replay() is make_workload() and clear() does nothing, since
 * every job runs its own generator. Keep all four out of line: an inline
 * enabled() lets the compiler fold a branch of that program and recompile
 * its host-speed probe, which moves every host time the benchmark
 * rescales by it.
 */
class StreamCache {
  public:
    static StreamCache &instance();

    /// Always false.
    static bool enabled();

    /// make_workload(name, options).
    std::unique_ptr<Workload> replay(const std::string &name,
                                     const WorkloadOptions &options);

    /// Does nothing: nothing is cached.
    void clear();
};

}  // namespace ptm::workload
