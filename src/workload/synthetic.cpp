#include "workload/synthetic.hpp"

#include "common/log.hpp"

namespace ptm::workload {

SyntheticWorkload::SyntheticWorkload(std::string name, std::uint64_t seed)
    : name_(std::move(name)), rng_(seed)
{
}

unsigned
SyntheticWorkload::add_region(Addr bytes)
{
    if (bytes == 0 || bytes % kPageSize != 0)
        ptm_fatal("region size must be a nonzero page multiple");
    region_bytes_.push_back(bytes);
    return static_cast<unsigned>(region_bytes_.size() - 1);
}

void
SyntheticWorkload::add_pattern(unsigned region_index,
                               std::unique_ptr<AccessPattern> pattern,
                               double weight)
{
    if (region_index >= region_bytes_.size())
        ptm_fatal("pattern bound to unknown region %u", region_index);
    if (weight <= 0.0)
        ptm_fatal("pattern weight must be positive");
    total_weight_ += weight;
    bindings_.push_back({std::move(pattern), region_index, weight});
}

Addr
SyntheticWorkload::static_footprint() const
{
    Addr total = 0;
    for (Addr bytes : region_bytes_)
        total += bytes;
    return total;
}

void
SyntheticWorkload::setup(WorkloadContext &ctx)
{
    regions_.clear();
    for (Addr bytes : region_bytes_)
        regions_.push_back({ctx.mmap(bytes), bytes});
    for (Binding &binding : bindings_)
        binding.pattern->bind(regions_[binding.region_index]);

    initializing_ = init_touch_ && !regions_.empty();
    init_region_ = 0;
    init_page_ = 0;
    pattern_ops_until_churn_ = churn_.ops_between_churn;
}

MemOp
SyntheticWorkload::next_init_op()
{
    // One write per page, regions in declaration order, pages ascending:
    // the canonical "initialize all allocated data structures" sweep.
    const Region &region = regions_[init_region_];
    MemOp op{region.base + init_page_ * kPageSize, true};
    if (++init_page_ >= region.pages()) {
        init_page_ = 0;
        if (++init_region_ >= regions_.size())
            initializing_ = false;
    }
    return op;
}

MemOp
SyntheticWorkload::next_pattern_op()
{
    ptm_assert(!bindings_.empty(),
               "workload '%s' entered its access phase with no pattern "
               "bindings", name_.c_str());
    double pick = rng_.uniform() * total_weight_;
    for (Binding &binding : bindings_) {
        pick -= binding.weight;
        if (pick <= 0.0)
            return binding.pattern->next(rng_);
    }
    return bindings_.back().pattern->next(rng_);
}

std::optional<MemOp>
SyntheticWorkload::next_churn_op(WorkloadContext &ctx)
{
    if (!touching_chunk_) {
        // Start a new episode: allocate a chunk; retire the oldest if the
        // live window is full.
        if (live_chunks_.size() >= churn_.live_chunks) {
            ctx.munmap(live_chunks_.front().base);
            live_chunks_.pop_front();
        }
        current_chunk_ = {ctx.mmap(churn_.chunk_bytes), churn_.chunk_bytes};
        live_chunks_.push_back(current_chunk_);
        chunk_page_cursor_ = 0;
        touching_chunk_ = true;
    }

    MemOp op{current_chunk_.base + chunk_page_cursor_ * kPageSize, true};
    if (++chunk_page_cursor_ >= current_chunk_.pages()) {
        touching_chunk_ = false;
        pattern_ops_until_churn_ = churn_.ops_between_churn;
    }
    return op;
}

std::optional<MemOp>
SyntheticWorkload::next(WorkloadContext &ctx)
{
    if (initializing_)
        return next_init_op();

    if (total_ops_ != 0 && ops_done_ >= total_ops_)
        return std::nullopt;
    ++ops_done_;

    if (repeats_left_ > 0) {
        // Continue reading the current line: next 8-byte word, staying
        // within the 64-byte block.
        --repeats_left_;
        repeat_op_.gva = (repeat_op_.gva & ~(kCacheLineSize - 1)) |
                         ((repeat_op_.gva + 8) & (kCacheLineSize - 1));
        return repeat_op_;
    }

    if (churn_.chunk_bytes != 0) {
        if (touching_chunk_ || bindings_.empty())
            return next_churn_op(ctx);
        if (pattern_ops_until_churn_ == 0)
            return next_churn_op(ctx);
        --pattern_ops_until_churn_;
    }
    MemOp op = next_pattern_op();
    if (line_repeats_ > 1) {
        repeat_op_ = op;
        repeats_left_ = line_repeats_ - 1;
    }
    return op;
}

}  // namespace ptm::workload
