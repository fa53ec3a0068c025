/**
 * @file
 * SyntheticWorkload: a configurable process model assembled from regions,
 * weighted access patterns, and an optional allocate/touch/free churn
 * loop. Every Table 3 application is an instance with different knobs
 * (see catalog.cpp).
 */
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "workload/patterns.hpp"
#include "workload/workload.hpp"

namespace ptm::workload {

/// Allocate/touch/free loop configuration (co-runner behaviour).
struct ChurnSpec {
    Addr chunk_bytes = 0;            ///< 0 disables churn
    unsigned ops_between_churn = 0;  ///< pattern ops between episodes
    unsigned live_chunks = 4;        ///< chunks kept before freeing oldest
};

/**
 * A deterministic synthetic process. Phases:
 *  - init: one write to every page of every static region, in address
 *    order (modelling data-structure initialization — this is when the
 *    allocation decisions the paper studies are made);
 *  - compute: weighted mixture of the configured patterns, optionally
 *    interleaved with churn episodes; finite if total_ops was set.
 */
class SyntheticWorkload final : public Workload {
  public:
    SyntheticWorkload(std::string name, std::uint64_t seed);

    /// Declare a static region of @p bytes; returns its index.
    unsigned add_region(Addr bytes);

    /// Attach a pattern to region @p region_index with selection weight
    /// @p weight (relative to the other patterns).
    void add_pattern(unsigned region_index,
                     std::unique_ptr<AccessPattern> pattern, double weight);

    void set_churn(const ChurnSpec &spec) { churn_ = spec; }

    /// Limit the compute phase to @p ops operations (0 = run forever).
    void set_total_ops(std::uint64_t ops) { total_ops_ = ops; }

    /// Skip the init touch sweep (for pure-churn workloads).
    void set_init_touch(bool enabled) { init_touch_ = enabled; }

    /**
     * Temporal locality knob: every pattern-generated address is accessed
     * @p repeats times in a row at successive words of its cache line
     * (reading the fields of a struct). Raises cache hit rates without
     * changing page-level behaviour. Default 4.
     */
    void set_line_repeats(unsigned repeats) { line_repeats_ = repeats; }

    // Workload interface.
    void setup(WorkloadContext &ctx) override;
    std::optional<MemOp> next(WorkloadContext &ctx) override;
    bool in_init_phase() const override { return initializing_; }
    std::string name() const override { return name_; }

    /// Total bytes of the static regions (footprint knob introspection).
    Addr static_footprint() const override;

  private:
    struct Binding {
        std::unique_ptr<AccessPattern> pattern;
        unsigned region_index;
        double weight;
    };

    MemOp next_init_op();
    MemOp next_pattern_op();
    std::optional<MemOp> next_churn_op(WorkloadContext &ctx);

    std::string name_;
    Rng rng_;
    std::vector<Addr> region_bytes_;
    std::vector<Region> regions_;
    std::vector<Binding> bindings_;
    double total_weight_ = 0.0;
    ChurnSpec churn_;
    std::uint64_t total_ops_ = 0;
    std::uint64_t ops_done_ = 0;
    unsigned line_repeats_ = 4;
    bool init_touch_ = true;
    bool initializing_ = true;

    // line-repeat state
    MemOp repeat_op_{};
    unsigned repeats_left_ = 0;

    // init sweep cursor
    std::size_t init_region_ = 0;
    std::uint64_t init_page_ = 0;

    // churn state
    std::deque<Region> live_chunks_;
    Region current_chunk_{};
    std::uint64_t chunk_page_cursor_ = 0;
    bool touching_chunk_ = false;
    unsigned pattern_ops_until_churn_ = 0;
};

}  // namespace ptm::workload
