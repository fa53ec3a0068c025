#include "cache/cache.hpp"

#include <bit>

namespace ptm::cache {

Cache::Cache(const CacheGeometry &geometry, Rng *rng)
    : geometry_(geometry), rng_(rng)
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

    switch (geometry_.replacement) {
      case ReplacementKind::Lru:
        repl_words_ = ways_;
        break;
      case ReplacementKind::TreePlru:
        plru_leaves_ = 1;
        while (plru_leaves_ < ways_)
            plru_leaves_ <<= 1;
        repl_words_ = plru_leaves_;
        break;
      case ReplacementKind::Random:
        if (rng_ == nullptr)
            ptm_fatal("%s: random replacement needs an Rng",
                      geometry_.name.c_str());
        repl_words_ = 0;
        break;
    }
    tag_words_ = (ways_ + 1) / 2;
    set_stride_ = tag_words_ + repl_words_;

    slab_.assign(static_cast<std::size_t>(num_sets_) * set_stride_, 0);
    hint_.assign(num_sets_, 0);
    live_.assign(num_sets_, 0);
    reset_tags();
}

void
Cache::reset_tags()
{
    // Tags to the empty sentinel, replacement state and the hint/live
    // accelerators to zero. Stale replacement state is never consulted:
    // a set refills through the empty-way scan, and every install
    // touches its way first.
    for (std::uint64_t set = 0; set < num_sets_; ++set) {
        std::uint32_t *tags = set_tags(set);
        for (unsigned w = 0; w < 2 * tag_words_; ++w)
            tags[w] = kInvalidTag;  // including the pad lane of odd ways
        std::uint64_t *repl = set_repl(set);
        for (unsigned r = 0; r < repl_words_; ++r)
            repl[r] = 0;
        hint_[set] = 0;
        live_[set] = 0;
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
Cache::fill(std::uint64_t line)
{
    // The install may evict the memoized line, so drop the memo.
    memo_line_ = ~0ULL;
    const std::uint64_t set = line & (num_sets_ - 1);
    const std::uint32_t tag = tag_of(line);
    if (find_way(set_tags(set), tag) < ways_)
        return;
    install(set, tag);
}

void
Cache::invalidate(std::uint64_t line)
{
    memo_line_ = ~0ULL;
    const std::uint64_t set = line & (num_sets_ - 1);
    const std::uint32_t tag = tag_of(line);
    std::uint32_t *tags = set_tags(set);
    const unsigned w = find_way(tags, tag);
    if (w < ways_) {
        tags[w] = kInvalidTag;
        --live_[set];
    }
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
    for (std::uint64_t set = 0; set < num_sets_; ++set)
        n += live_of(set);
    return n;
}

}  // namespace ptm::cache
