#include "vm/reserve_thp_provider.hpp"

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/stat_registry.hpp"
#include "vm/guest_kernel.hpp"

namespace ptm::vm {

namespace {

std::uint64_t
region_key(std::int32_t pid, std::uint64_t region)
{
    // pid in the top bits, region (< 2^40 for 48-bit VAs) below.
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(pid))
            << 40) |
           region;
}

bool
key_belongs_to(std::uint64_t key, std::int32_t pid)
{
    return (key >> 40) ==
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(pid));
}

}  // namespace

ReserveThpProvider::ReserveThpProvider(GuestKernel *kernel,
                                       std::uint64_t promotion_threshold)
    : kernel_(kernel), promotion_threshold_(promotion_threshold)
{
    if (kernel == nullptr)
        ptm_fatal("reserve-thp provider needs a kernel");
    if (promotion_threshold_ > kRegionPages)
        ptm_throw("promotion threshold %llu exceeds region size %u",
                  static_cast<unsigned long long>(promotion_threshold_),
                  kRegionPages);
}

AllocOutcome
ReserveThpProvider::plain_single()
{
    std::optional<std::uint64_t> gfn = kernel_->buddy().allocate_frame();
    if (!gfn)
        return {.ok = false};
    return {.ok = true,
            .gfn = *gfn,
            .cycles = kernel_->costs().buddy_call};
}

AllocOutcome
ReserveThpProvider::allocate_page(Process &proc, std::uint64_t gvpn)
{
    const std::uint64_t region_index = gvpn / kRegionPages;
    const unsigned offset = static_cast<unsigned>(gvpn % kRegionPages);
    const std::uint64_t key = region_key(proc.pid(), region_index);

    auto it = regions_.find(key);
    if (it != regions_.end()) {
        Region &region = it->second;
        if (region.held.test(offset)) {
            region.held.reset(offset);
            ++region.demand_faults;
            stats_.reservation_hits.inc();
            maybe_promote(proc, region_index, region);
            return {.ok = true,
                    .gfn = region.base + offset,
                    .cycles = kernel_->costs().reservation_hit};
        }
        // Offset was handed out before (and possibly freed to the buddy
        // since), or the region was reclaimed: plain 4 KiB path.
        return plain_single();
    }

    // First touch of the region: reserve an aligned order-9 block and
    // park every frame but the faulting page's. The first fault counts
    // toward promotion like a hit, so threshold 1 maps the rest now.
    std::optional<std::uint64_t> base =
        kernel_->buddy().allocate_split(kRegionOrder);
    if (!base) {
        stats_.fallback_singles.inc();
        return plain_single();
    }

    stats_.reservations_created.inc();
    Region &region = regions_[key];
    region.base = *base;
    region.demand_faults = 1;
    for (unsigned i = 0; i < kRegionPages; ++i) {
        if (i == offset)
            continue;  // the kernel maps the faulting page itself
        kernel_->memory().set_use(*base + i, 1, mem::FrameUse::Reserved,
                                  proc.pid());
        region.held.set(i);
    }
    maybe_promote(proc, region_index, region);

    return {.ok = true,
            .gfn = *base + offset,
            .cycles = kernel_->costs().buddy_call +
                      kernel_->costs().reservation_insert};
}

void
ReserveThpProvider::maybe_promote(Process &proc, std::uint64_t region_index,
                                  Region &region)
{
    if (region.promoted || promotion_threshold_ == 0 ||
        region.demand_faults < promotion_threshold_)
        return;
    region.promoted = true;
    stats_.promotions.inc();

    for (unsigned offset = 0; offset < kRegionPages; ++offset) {
        std::uint64_t page = region_index * kRegionPages + offset;
        if (!region.held.test(offset) || !proc.vas().is_mapped(page) ||
            proc.page_table().lookup(page))
            continue;  // not parked, outside any VMA, or already mapped
        const std::uint64_t frame = region.base + offset;
        if (!proc.page_table().map(page,
                                   {.writable = true, .frame = frame}))
            ptm_throw("guest OOM while promoting region %llu for pid %d",
                      static_cast<unsigned long long>(region_index),
                      proc.pid());
        kernel_->memory().set_use(frame, 1, mem::FrameUse::Data,
                                  proc.pid());
        proc.add_rss(1);
        stats_.pages_eager_mapped.inc();
        region.held.reset(offset);
    }
}

FreeDisposition
ReserveThpProvider::on_page_freed(Process &proc, std::uint64_t gvpn,
                                  std::uint64_t gfn)
{
    const std::uint64_t region_index = gvpn / kRegionPages;
    const unsigned offset = static_cast<unsigned>(gvpn % kRegionPages);
    auto it = regions_.find(region_key(proc.pid(), region_index));
    if (it == regions_.end())
        return FreeDisposition::ReturnToBuddy;
    Region &region = it->second;
    if (gfn != region.base + offset)
        return FreeDisposition::ReturnToBuddy;  // COW copy or fallback page
    // The page still sits in its reserved slot: park it again so a later
    // fault (or promotion) reuses it contiguously.
    kernel_->memory().set_use(gfn, 1, mem::FrameUse::Reserved, proc.pid());
    region.held.set(offset);
    return FreeDisposition::KeptByProvider;
}

void
ReserveThpProvider::release_held(Region &region)
{
    for (unsigned offset = 0; offset < kRegionPages; ++offset) {
        if (!region.held.test(offset))
            continue;
        kernel_->memory().set_use(region.base + offset, 1,
                                  mem::FrameUse::Free);
        kernel_->buddy().free(region.base + offset);
    }
    region.held.reset();
}

std::uint64_t
ReserveThpProvider::reclaim(std::uint64_t target_frames)
{
    std::uint64_t released = 0;
    for (auto &[key, region] : regions_) {
        if (released >= target_frames)
            break;
        std::uint64_t give = region.held.count();
        if (give == 0)
            continue;
        release_held(region);
        released += give;
    }
    stats_.frames_reclaimed.inc(released);
    return released;
}

void
ReserveThpProvider::on_process_exit(Process &proc)
{
    for (auto it = regions_.begin(); it != regions_.end();) {
        if (key_belongs_to(it->first, proc.pid())) {
            release_held(it->second);
            it = regions_.erase(it);
        } else {
            ++it;
        }
    }
}

std::uint64_t
ReserveThpProvider::held_frames() const
{
    std::uint64_t total = 0;
    for (const auto &[key, region] : regions_)
        total += region.held.count();
    return total;
}

void
ReserveThpProvider::register_stats(obs::StatRegistry &registry,
                                   const std::string &prefix)
{
    registry.counter(prefix + ".reservations_created",
                     &stats_.reservations_created);
    registry.counter(prefix + ".reservation_hits",
                     &stats_.reservation_hits);
    registry.counter(prefix + ".promotions", &stats_.promotions);
    registry.counter(prefix + ".pages_eager_mapped",
                     &stats_.pages_eager_mapped);
    registry.counter(prefix + ".fallback_singles",
                     &stats_.fallback_singles);
    registry.counter(prefix + ".frames_reclaimed",
                     &stats_.frames_reclaimed);
}

}  // namespace ptm::vm
