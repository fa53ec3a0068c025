/**
 * @file
 * Hierarchical statistics registry — the read side of the observability
 * layer (see DESIGN.md "Observability").
 *
 * Components keep owning their stat structs (plain Counter/Histogram
 * members, incremented directly on the hot path — registration adds zero
 * per-event cost). At wiring time each component registers its members
 * under a hierarchical dotted path ("vm0.core1.l2tlb.misses"); the sim
 * layer then snapshots the whole registry uniformly instead of
 * hand-picking fields, and resets exactly the measurement-scoped subset
 * at measurement start.
 *
 * The registry stores non-owning pointers: every registered stat must
 * outlive the registry or the registry must be dropped first. In
 * practice both live inside sim::System, which owns all components.
 */
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/stats.hpp"

namespace ptm::obs {

/// When a registered stat is cleared.
enum class ResetScope : std::uint8_t {
    /// Never auto-reset: accumulates over the whole run (allocators,
    /// kernels, TLB structures — warmup state is part of their story).
    Lifetime,
    /// Cleared by System::reset_measurement() at measurement-window
    /// start (per-job counters, walker stats, cache hierarchy).
    Measurement,
};

/// Read-time digest of one histogram (the snapshot carries summaries,
/// not bucket arrays — BENCH files stay diffable).
struct HistogramSummary {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double mean = 0.0;
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    std::uint64_t p99 = 0;
};

/**
 * Point-in-time copy of every registered stat, in registration order
 * (which is hierarchical by construction). Plain data: safe to keep
 * after the registry or the underlying components are gone.
 */
class StatSnapshot {
  public:
    struct Entry {
        std::string path;
        bool is_histogram = false;
        double value = 0.0;          ///< counter value (counters only)
        HistogramSummary histogram;  ///< filled for histograms only
    };

    const std::vector<Entry> &entries() const { return entries_; }
    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }

    bool has(const std::string &path) const;
    /// Counter value at @p path; fatal if missing or a histogram.
    double value(const std::string &path) const;
    /// Histogram summary at @p path; fatal if missing or a counter.
    const HistogramSummary &histogram(const std::string &path) const;

    /// Append one counter entry (snapshot construction).
    void add_counter(std::string path, double value);
    /// Append one histogram entry (snapshot construction).
    void add_histogram(std::string path, const HistogramSummary &summary);

  private:
    const Entry &find(const std::string &path) const;

    std::vector<Entry> entries_;
};

/**
 * The registry itself. Registration is wiring-time only (System
 * construction, job creation); lookup/snapshot/reset are read-side
 * operations — nothing here is touched per simulated event.
 */
class StatRegistry {
  public:
    /// Register @p counter under @p path; fatal on a duplicate path or a
    /// null pointer. The counter is not owned.
    void counter(std::string path, Counter *counter,
                 ResetScope scope = ResetScope::Lifetime);

    /// Register @p histogram under @p path; same rules as counter().
    void histogram(std::string path, Histogram *histogram,
                   ResetScope scope = ResetScope::Lifetime);

    bool has(const std::string &path) const
    {
        return paths_.count(path) != 0;
    }
    std::size_t size() const { return entries_.size(); }

    /// Reset every stat registered with @p scope.
    void reset(ResetScope scope);

    /// Copy all current values out, in registration order.
    StatSnapshot snapshot() const;

  private:
    struct Entry {
        std::string path;
        Counter *counter = nullptr;      // exactly one of these two
        Histogram *histogram = nullptr;  // is non-null
        ResetScope scope = ResetScope::Lifetime;
    };

    void add(Entry entry);

    std::vector<Entry> entries_;
    std::unordered_set<std::string> paths_;
};

}  // namespace ptm::obs
