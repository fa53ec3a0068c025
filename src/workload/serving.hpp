/**
 * @file
 * Cloud-serving workload tier (ROADMAP item 4): the paper's claim is
 * about *public-cloud* page-walk latency, so alongside the SPEC-shaped
 * catalog the simulator ships request-driven generators whose allocation
 * behaviour matches what serving fleets actually do to a host:
 *
 *  - kv_tier:    memcached/redis-like key-value tier — Zipfian key
 *                popularity over a large slab heap, per-connection
 *                request arenas, and seeded connection churn whose
 *                mmap/munmap storms fragment the host buddy the way §2
 *                of the paper describes;
 *  - fork_storm: one serverless worker — short-lived per-request arenas
 *                over a shared read-mostly image, with parent-side image
 *                writes that turn into COW faults when the bench drives
 *                forks through ChurnPlan;
 *  - ws_estimate: a dirty-footprint probe with a rotating hot window,
 *                the driver workload for PML-style working-set
 *                estimation (obs/dirty_ring.hpp).
 *
 * All three register with workload_factory.cpp under those names.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "workload/workload.hpp"
#include "workload/workload_factory.hpp"

namespace ptm::workload {

/**
 * Zipfian rank sampler over n items with skew theta (0 < theta < 1),
 * using the Gray et al. rejection-free inversion popularized by YCSB.
 * Rank 0 is the most popular item. Deterministic given the Rng stream:
 * exactly one uniform() draw per next() call.
 */
class ZipfianSampler {
  public:
    ZipfianSampler(std::uint64_t n, double theta);

    /// Sample a rank in [0, n).
    std::uint64_t next(Rng &rng) const;

    /// Analytic probability mass of @p rank (chi-squared test anchor).
    double mass(std::uint64_t rank) const;

    std::uint64_t n() const { return n_; }

  private:
    std::uint64_t n_;
    double theta_;
    double zetan_;
    double alpha_;
    double eta_;
};

/**
 * kv_tier: one serving process of a key-value cache tier.
 *
 * The slab heap holds value_count values of value_bytes each; requests
 * pick a key rank from the Zipfian sampler and touch value_lines cache
 * lines of the value (a GET reads them, a SET writes them — the
 * write_fraction chance is drawn per request). Each request first writes
 * request-parsing scratch into its connection's arena; every
 * requests_per_conn_churn requests a connection disconnects and a new
 * one arrives (munmap + mmap of its arena — the steady allocator churn
 * that fragments the host).
 *
 * WorkloadParams knobs (all optional): slab_mb, value_bytes,
 * value_lines, connections, arena_kb, requests_per_conn_churn,
 * write_fraction, theta.
 */
class KvTierWorkload final : public Workload {
  public:
    KvTierWorkload(std::string name, const WorkloadOptions &options);

    void setup(WorkloadContext &ctx) override;
    std::optional<MemOp> next(WorkloadContext &ctx) override;
    bool in_init_phase() const override { return initializing_; }
    std::string name() const override { return name_; }
    Addr static_footprint() const override;

  private:
    void start_request(WorkloadContext &ctx);

    std::string name_;
    Rng rng_;

    // knobs (resolved in the ctor)
    Addr slab_bytes_;
    Addr value_bytes_;
    unsigned value_lines_;
    unsigned connections_;
    Addr arena_bytes_;
    std::uint64_t requests_per_conn_churn_;
    double write_fraction_;
    double theta_;
    std::uint64_t total_ops_;

    std::unique_ptr<ZipfianSampler> zipf_;
    std::uint64_t value_count_ = 0;
    std::uint64_t rank_stride_ = 1;  ///< rank->slot scatter, coprime to n

    Addr slab_base_ = 0;
    std::vector<Addr> arenas_;
    std::vector<std::uint64_t> conn_requests_;
    std::uint64_t request_seq_ = 0;

    bool initializing_ = true;
    std::uint64_t init_page_ = 0;
    std::uint64_t ops_done_ = 0;

    std::vector<MemOp> burst_;
    std::size_t burst_pos_ = 0;
};

/**
 * fork_storm: one serverless worker process. A read-mostly function
 * image plus a persistent scratch region are faulted in up front (so a
 * fork duplicates a populated address space); each request then mmaps a
 * short-lived arena, runs request_ops operations mixing arena writes,
 * image reads (a write_fraction of image touches are writes — the
 * parent-side stores that become COW faults in forked children), and
 * scratch writes, and the arena is unmapped when the next request
 * starts. Drive it through ChurnPlan forks for the storm itself.
 *
 * WorkloadParams knobs: image_mb, scratch_kb, arena_kb, request_ops,
 * write_fraction.
 */
class ForkStormWorkload final : public Workload {
  public:
    ForkStormWorkload(std::string name, const WorkloadOptions &options);

    void setup(WorkloadContext &ctx) override;
    std::optional<MemOp> next(WorkloadContext &ctx) override;
    bool in_init_phase() const override { return initializing_; }
    std::string name() const override { return name_; }
    Addr static_footprint() const override;

  private:
    void start_request(WorkloadContext &ctx);
    MemOp request_op();

    std::string name_;
    Rng rng_;

    Addr image_bytes_;
    Addr scratch_bytes_;
    Addr arena_bytes_;
    unsigned request_ops_;
    double write_fraction_;
    std::uint64_t total_ops_;

    Addr image_base_ = 0;
    Addr scratch_base_ = 0;
    Addr arena_base_ = 0;  ///< 0 when no arena is live

    bool initializing_ = true;
    std::uint64_t init_page_ = 0;
    std::uint64_t ops_done_ = 0;
    unsigned ops_left_in_request_ = 0;
    Addr arena_cursor_ = 0;
};

/**
 * ws_estimate: dirty working-set probe. A heap is faulted in once; the
 * compute phase concentrates 90% of accesses on a hot window of
 * hot_pages pages that rotates through the heap every shift_every ops,
 * with the rest uniform. The dirty ring's per-epoch distinct-dirty-page
 * count should track hot_pages (plus the uniform tail) and move when the
 * window shifts.
 *
 * WorkloadParams knobs: heap_mb, hot_pages, shift_every, write_fraction,
 * hot_fraction.
 */
class WsEstimateWorkload final : public Workload {
  public:
    WsEstimateWorkload(std::string name, const WorkloadOptions &options);

    void setup(WorkloadContext &ctx) override;
    std::optional<MemOp> next(WorkloadContext &ctx) override;
    bool in_init_phase() const override { return initializing_; }
    std::string name() const override { return name_; }
    Addr static_footprint() const override { return heap_bytes_; }

  private:
    MemOp compute_op();

    std::string name_;
    Rng rng_;

    Addr heap_bytes_;
    std::uint64_t hot_pages_;
    std::uint64_t shift_every_;
    double write_fraction_;
    double hot_fraction_;
    std::uint64_t total_ops_;

    Addr heap_base_ = 0;
    std::uint64_t heap_pages_ = 0;

    bool initializing_ = true;
    std::uint64_t init_page_ = 0;
    std::uint64_t ops_done_ = 0;
    std::uint64_t window_ = 0;
};

}  // namespace ptm::workload
