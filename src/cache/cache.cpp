#include "cache/cache.hpp"

#include <bit>

namespace ptm::cache {

Cache::Cache(const CacheGeometry &geometry) : geometry_(geometry)
{
    if (geometry_.ways == 0)
        ptm_fatal("%s: cache with zero ways", geometry_.name.c_str());
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
    tag_words_ = (ways_ + 1) / 2;
    set_stride_ = tag_words_ + ways_;

    slab_.assign(static_cast<std::size_t>(num_sets_) * set_stride_, 0);
    hint_.assign(num_sets_, 0);
    reset_tags();
}

void
Cache::reset_tags()
{
    // Tags to the empty sentinel, stamps and the hint accelerator to
    // zero: install() picks the smallest stamp, so a flushed set refills
    // its empty ways lowest first.
    for (std::uint64_t set = 0; set < num_sets_; ++set) {
        std::uint32_t *tags = set_tags(set);
        for (unsigned w = 0; w < 2 * tag_words_; ++w)
            tags[w] = kInvalidTag;  // including the pad lane of odd ways
        std::uint64_t *stamps = set_stamps(set);
        for (unsigned w = 0; w < ways_; ++w)
            stamps[w] = 0;
        hint_[set] = 0;
    }
    memo_line_ = ~0ULL;
}

bool
Cache::probe(std::uint64_t line) const
{
    const std::uint64_t set = line & (num_sets_ - 1);
    const std::uint32_t tag = tag_of(line);
    return find_way(set_tags(set), tag) < ways_;
}

void
Cache::flush()
{
    reset_tags();
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
    for (std::uint64_t set = 0; set < num_sets_; ++set) {
        const std::uint32_t *tags = set_tags(set);
        for (unsigned w = 0; w < ways_; ++w)
            n += tags[w] != kInvalidTag ? 1 : 0;
    }
    return n;
}

}  // namespace ptm::cache
