#include "workload/serving.hpp"

#include <cmath>
#include <numeric>

namespace ptm::workload {

namespace {

constexpr Addr
mib(double n)
{
    return static_cast<Addr>(n * 1024.0 * 1024.0);
}

Addr
scaled_bytes(double megabytes, double scale)
{
    Addr bytes = mib(megabytes * scale);
    return bytes < kPageSize ? kPageSize : page_ceil(bytes);
}

constexpr std::uint64_t kLinesPerPage = kPageSize / kCacheLineSize;

}  // namespace

// ---------------------------------------------------------------------
// ZipfianSampler

ZipfianSampler::ZipfianSampler(std::uint64_t n, double theta)
    : n_(n == 0 ? 1 : n), theta_(theta)
{
    double zetan = 0.0;
    for (std::uint64_t i = 1; i <= n_; ++i)
        zetan += 1.0 / std::pow(static_cast<double>(i), theta_);
    zetan_ = zetan;
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
}

std::uint64_t
ZipfianSampler::next(Rng &rng) const
{
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta_))
        return n_ > 1 ? 1 : 0;
    auto rank = static_cast<std::uint64_t>(
        static_cast<double>(n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank >= n_ ? n_ - 1 : rank;
}

double
ZipfianSampler::mass(std::uint64_t rank) const
{
    return 1.0 /
           std::pow(static_cast<double>(rank + 1), theta_) / zetan_;
}

// ---------------------------------------------------------------------
// kv_tier

KvTierWorkload::KvTierWorkload(std::string name,
                               const WorkloadOptions &options)
    : name_(std::move(name)),
      rng_(detail::mix_seed(name_, options.seed))
{
    const WorkloadParams &p = options.params;
    slab_bytes_ = scaled_bytes(p.get("slab_mb", 24.0), options.scale);
    value_bytes_ = p.get_u64("value_bytes", 1024);
    if (value_bytes_ < kCacheLineSize)
        value_bytes_ = kCacheLineSize;
    value_bytes_ = (value_bytes_ + kCacheLineSize - 1) &
                   ~(kCacheLineSize - 1);
    value_lines_ = static_cast<unsigned>(p.get_u64("value_lines", 4));
    if (value_lines_ == 0)
        value_lines_ = 1;
    connections_ = static_cast<unsigned>(p.get_u64("connections", 16));
    if (connections_ == 0)
        connections_ = 1;
    arena_bytes_ = page_ceil(p.get_u64("arena_kb", 64) * 1024);
    if (arena_bytes_ == 0)
        arena_bytes_ = kPageSize;
    requests_per_conn_churn_ = p.get_u64("requests_per_conn_churn", 256);
    write_fraction_ = p.get("write_fraction", 0.1);
    theta_ = p.get("theta", 0.99);
    total_ops_ = options.total_ops;

    value_count_ = slab_bytes_ / value_bytes_;
    if (value_count_ == 0)
        value_count_ = 1;
    zipf_ = std::make_unique<ZipfianSampler>(value_count_, theta_);
    // Scatter popularity ranks across the slab with a golden-ratio
    // stride (forced coprime so every rank keeps a distinct slot):
    // hot keys land on different pages, as a real slab allocator's
    // insertion order would place them.
    rank_stride_ = static_cast<std::uint64_t>(
        static_cast<double>(value_count_) * 0.6180339887498949);
    if (rank_stride_ == 0)
        rank_stride_ = 1;
    while (std::gcd(rank_stride_, value_count_) != 1)
        ++rank_stride_;
}

Addr
KvTierWorkload::static_footprint() const
{
    return slab_bytes_ + Addr{connections_} * arena_bytes_;
}

void
KvTierWorkload::setup(WorkloadContext &ctx)
{
    slab_base_ = ctx.mmap(slab_bytes_);
    arenas_.clear();
    for (unsigned c = 0; c < connections_; ++c)
        arenas_.push_back(ctx.mmap(arena_bytes_));
    conn_requests_.assign(connections_, 0);
}

void
KvTierWorkload::start_request(WorkloadContext &ctx)
{
    const auto conn = static_cast<unsigned>(request_seq_ % connections_);
    if (requests_per_conn_churn_ != 0 &&
        conn_requests_[conn] >= requests_per_conn_churn_) {
        // The connection disconnects; the next client's arena lands
        // wherever the allocator puts it now.
        ctx.munmap(arenas_[conn]);
        arenas_[conn] = ctx.mmap(arena_bytes_);
        conn_requests_[conn] = 0;
    }
    ++conn_requests_[conn];
    ++request_seq_;

    burst_.clear();
    burst_pos_ = 0;
    // Request parsing scratch: two writes into the connection arena.
    const std::uint64_t arena_lines = arena_bytes_ / kCacheLineSize;
    for (int i = 0; i < 2; ++i) {
        const Addr off = rng_.below(arena_lines) * kCacheLineSize;
        burst_.push_back({arenas_[conn] + off, true});
    }
    // The key lookup: Zipfian rank, scattered to its slab slot; GET
    // reads the value lines, SET rewrites them.
    const std::uint64_t rank = zipf_->next(rng_);
    const std::uint64_t slot = (rank * rank_stride_) % value_count_;
    const bool is_write = rng_.chance(write_fraction_);
    const Addr value_base = slab_base_ + slot * value_bytes_;
    for (unsigned l = 0; l < value_lines_; ++l)
        burst_.push_back(
            {value_base + (l * kCacheLineSize) % value_bytes_, is_write});
}

std::optional<MemOp>
KvTierWorkload::next(WorkloadContext &ctx)
{
    if (initializing_) {
        // Fault the slab then the arenas in address order — the
        // allocation phase whose placement the policies differ on.
        const std::uint64_t slab_pages = slab_bytes_ / kPageSize;
        const std::uint64_t arena_pages = arena_bytes_ / kPageSize;
        const std::uint64_t init_pages =
            slab_pages + arena_pages * connections_;
        MemOp op;
        op.write = true;
        if (init_page_ < slab_pages) {
            op.gva = slab_base_ + init_page_ * kPageSize;
        } else {
            const std::uint64_t a = init_page_ - slab_pages;
            op.gva = arenas_[static_cast<std::size_t>(a / arena_pages)] +
                     (a % arena_pages) * kPageSize;
        }
        if (++init_page_ >= init_pages)
            initializing_ = false;
        return op;
    }
    if (total_ops_ != 0 && ops_done_ >= total_ops_)
        return std::nullopt;
    if (burst_pos_ >= burst_.size())
        start_request(ctx);
    ++ops_done_;
    return burst_[burst_pos_++];
}

// ---------------------------------------------------------------------
// fork_storm

ForkStormWorkload::ForkStormWorkload(std::string name,
                                     const WorkloadOptions &options)
    : name_(std::move(name)),
      rng_(detail::mix_seed(name_, options.seed))
{
    const WorkloadParams &p = options.params;
    image_bytes_ = scaled_bytes(p.get("image_mb", 16.0), options.scale);
    scratch_bytes_ =
        scaled_bytes(p.get("scratch_kb", 256.0) / 1024.0, options.scale);
    arena_bytes_ = page_ceil(p.get_u64("arena_kb", 32) * 1024);
    if (arena_bytes_ == 0)
        arena_bytes_ = kPageSize;
    request_ops_ = static_cast<unsigned>(p.get_u64("request_ops", 96));
    if (request_ops_ == 0)
        request_ops_ = 1;
    write_fraction_ = p.get("write_fraction", 0.25);
    total_ops_ = options.total_ops;
}

Addr
ForkStormWorkload::static_footprint() const
{
    return image_bytes_ + scratch_bytes_;
}

void
ForkStormWorkload::setup(WorkloadContext &ctx)
{
    image_base_ = ctx.mmap(image_bytes_);
    scratch_base_ = ctx.mmap(scratch_bytes_);
}

void
ForkStormWorkload::start_request(WorkloadContext &ctx)
{
    // The previous request's arena dies when the next request arrives,
    // not at the end of the old one.
    if (arena_base_ != 0)
        ctx.munmap(arena_base_);
    arena_base_ = ctx.mmap(arena_bytes_);
    arena_cursor_ = 0;
    ops_left_in_request_ = request_ops_;
}

MemOp
ForkStormWorkload::request_op()
{
    const double r = rng_.uniform();
    if (r < 0.45) {
        // Request-local allocation: sequential writes into the arena.
        MemOp op{arena_base_ + arena_cursor_, true};
        arena_cursor_ = (arena_cursor_ + kCacheLineSize) % arena_bytes_;
        return op;
    }
    if (r < 0.85) {
        // Function image: mostly reads, but a write_fraction of stores
        // (globals, lazy relocations) — the COW faults of a fork storm.
        const Addr page = rng_.below(image_bytes_ / kPageSize);
        const Addr line = rng_.below(kLinesPerPage);
        return {image_base_ + page * kPageSize + line * kCacheLineSize,
                rng_.chance(write_fraction_)};
    }
    const Addr line = rng_.below(scratch_bytes_ / kCacheLineSize);
    return {scratch_base_ + line * kCacheLineSize, true};
}

std::optional<MemOp>
ForkStormWorkload::next(WorkloadContext &ctx)
{
    if (initializing_) {
        const std::uint64_t image_pages = image_bytes_ / kPageSize;
        const std::uint64_t init_pages =
            image_pages + scratch_bytes_ / kPageSize;
        MemOp op;
        op.write = true;
        op.gva = init_page_ < image_pages
                     ? image_base_ + init_page_ * kPageSize
                     : scratch_base_ +
                           (init_page_ - image_pages) * kPageSize;
        if (++init_page_ >= init_pages)
            initializing_ = false;
        return op;
    }
    if (total_ops_ != 0 && ops_done_ >= total_ops_)
        return std::nullopt;
    if (ops_left_in_request_ == 0)
        start_request(ctx);
    --ops_left_in_request_;
    ++ops_done_;
    return request_op();
}

// ---------------------------------------------------------------------
// ws_estimate

WsEstimateWorkload::WsEstimateWorkload(std::string name,
                                       const WorkloadOptions &options)
    : name_(std::move(name)),
      rng_(detail::mix_seed(name_, options.seed))
{
    const WorkloadParams &p = options.params;
    heap_bytes_ = scaled_bytes(p.get("heap_mb", 32.0), options.scale);
    hot_pages_ = p.get_u64("hot_pages", 512);
    if (hot_pages_ == 0)
        hot_pages_ = 1;
    shift_every_ = p.get_u64("shift_every", 20000);
    if (shift_every_ == 0)
        shift_every_ = 1;
    write_fraction_ = p.get("write_fraction", 0.7);
    hot_fraction_ = p.get("hot_fraction", 0.9);
    total_ops_ = options.total_ops;
}

void
WsEstimateWorkload::setup(WorkloadContext &ctx)
{
    heap_base_ = ctx.mmap(heap_bytes_);
    heap_pages_ = heap_bytes_ / kPageSize;
}

MemOp
WsEstimateWorkload::compute_op()
{
    window_ = ops_done_ / shift_every_;
    const std::uint64_t span =
        hot_pages_ < heap_pages_ ? hot_pages_ : heap_pages_;
    const std::uint64_t base = (window_ * hot_pages_) % heap_pages_;
    const std::uint64_t page =
        rng_.chance(hot_fraction_) ? (base + rng_.below(span)) % heap_pages_
                                   : rng_.below(heap_pages_);
    const Addr line = rng_.below(kLinesPerPage);
    return {heap_base_ + page * kPageSize + line * kCacheLineSize,
            rng_.chance(write_fraction_)};
}

std::optional<MemOp>
WsEstimateWorkload::next(WorkloadContext &)
{
    if (initializing_) {
        MemOp op{heap_base_ + init_page_ * kPageSize, true};
        if (++init_page_ >= heap_pages_)
            initializing_ = false;
        return op;
    }
    if (total_ops_ != 0 && ops_done_ >= total_ops_)
        return std::nullopt;
    MemOp op = compute_op();
    ++ops_done_;
    return op;
}

}  // namespace ptm::workload
