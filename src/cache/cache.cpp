#include "cache/cache.hpp"

#include <algorithm>

namespace ptm::cache {

Cache::Cache(const CacheGeometry &geometry) : geometry_(geometry)
{
    if (geometry_.ways == 0)
        ptm_fatal("%s: cache with zero ways", geometry_.name.c_str());
    if (geometry_.ways > kMaxWays)
        ptm_fatal("%s: %u ways exceed the %u a set's recency word ranks",
                  geometry_.name.c_str(), geometry_.ways, kMaxWays);
    num_sets_ = geometry_.num_sets();
    if (num_sets_ == 0 || (num_sets_ & (num_sets_ - 1)) != 0) {
        ptm_fatal("%s: set count %llu is not a nonzero power of two "
                  "(size=%llu ways=%u)",
                  geometry_.name.c_str(),
                  static_cast<unsigned long long>(num_sets_),
                  static_cast<unsigned long long>(geometry_.size_bytes),
                  geometry_.ways);
    }
    set_shift_ = static_cast<unsigned>(std::countr_zero(num_sets_));
    ways_ = geometry_.ways;
    stride_ = padded_ways(ways_);
    mru_shift_ = 4 * (ways_ - 1);

    tags_.resize(static_cast<std::size_t>(num_sets_) * stride_);
    recency_.resize(num_sets_);
    flush();
}

bool
Cache::probe(std::uint64_t line) const
{
    const std::uint64_t set = line & (num_sets_ - 1);
    const std::uint32_t tag = tag_of(line);
    return find_tag(set_tags(set), stride_, tag, ways_) < ways_;
}

void
Cache::flush()
{
    // Every set to the identity order, way w at rank w. Ways only become
    // empty here, and a touched way always moves to the top, so the
    // ways still empty sit below every used one in ascending order: a
    // refilling set fills its lowest empty way first.
    std::uint64_t identity = 0;
    for (unsigned w = 0; w < ways_; ++w)
        identity |= std::uint64_t{w} << (4 * w);
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(recency_.begin(), recency_.end(), identity);
    memo_line_ = ~0ULL;
}

void
Cache::register_stats(obs::StatRegistry &registry,
                      const std::string &prefix, obs::ResetScope scope)
{
    for (unsigned k = 0; k < kAccessKindCount; ++k) {
        const std::string kind =
            access_kind_name(static_cast<AccessKind>(k));
        registry.counter(prefix + ".hits." + kind, &stats_.hits[k], scope);
        registry.counter(prefix + ".misses." + kind, &stats_.misses[k],
                         scope);
    }
}

std::uint64_t
Cache::resident_lines() const
{
    std::uint64_t n = 0;
    for (std::uint32_t tag : tags_)
        n += tag != kInvalidTag ? 1 : 0;
    return n;
}

}  // namespace ptm::cache
