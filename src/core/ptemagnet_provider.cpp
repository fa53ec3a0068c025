#include "core/ptemagnet_provider.hpp"

#include <bit>

#include "common/error.hpp"
#include "common/log.hpp"
#include "vm/guest_kernel.hpp"

namespace ptm::core {

PtemagnetProvider::PtemagnetProvider(vm::GuestKernel *kernel,
                                     unsigned group_pages)
    : kernel_(kernel), group_pages_(group_pages)
{
    if (kernel == nullptr)
        ptm_fatal("PTEMagnet needs a kernel");
    if (group_pages < 2 || group_pages > 32 ||
        (group_pages & (group_pages - 1)) != 0) {
        ptm_throw("reservation granularity %u is not a power of two in "
                  "[2, 32]", group_pages);
    }
    reservation_order_ =
        static_cast<unsigned>(std::countr_zero(group_pages));
}

PtemagnetProvider::~PtemagnetProvider() = default;

Part &
PtemagnetProvider::part_for(std::int32_t pid)
{
    auto it = parts_.find(pid);
    if (it == parts_.end()) {
        it = parts_.emplace(pid, std::make_unique<Part>(group_pages_))
                 .first;
    }
    return *it->second;
}

const Part *
PtemagnetProvider::part_of(std::int32_t pid) const
{
    auto it = parts_.find(pid);
    return it == parts_.end() ? nullptr : it->second.get();
}

void
PtemagnetProvider::use_memory_limit_policy(Addr threshold_bytes)
{
    enabled_ = [threshold_bytes](const vm::Process &proc) {
        return proc.memory_limit_bytes() >= threshold_bytes;
    };
}

vm::AllocOutcome
PtemagnetProvider::plain_buddy_alloc()
{
    std::optional<std::uint64_t> gfn = kernel_->buddy().allocate_frame();
    stats_.buddy_calls.inc();
    if (!gfn)
        return {.ok = false};
    return {.ok = true, .gfn = *gfn, .cycles = kernel_->costs().buddy_call};
}

vm::AllocOutcome
PtemagnetProvider::allocate_page(vm::Process &proc, std::uint64_t gvpn)
{
    if (enabled_ && !enabled_(proc)) {
        stats_.disabled_allocs.inc();
        return plain_buddy_alloc();
    }

    const std::uint64_t group = group_of(gvpn);
    const unsigned offset = offset_of(gvpn);
    Part &part = part_for(proc.pid());

    // Fast path: the group already has a reservation. A claim that finds
    // the offset already mapped (a spurious refault after a reclaim
    // rebuilt the group's reservation) is served with the installed
    // frame, mirroring the kernel's "mapping already present" path —
    // degrading gracefully instead of asserting.
    ClaimResult claim = part.claim(group, offset);
    if (claim.found) {
        stats_.part_hits.inc();
        return {.ok = true,
                .gfn = claim.gfn,
                .cycles = kernel_->costs().reservation_hit};
    }

    // Fork rule (§4.4): a child's fault may be served from the parent's
    // reservation map if the page was not allocated there; children never
    // create entries in the parent's map.
    if (proc.parent_pid() >= 0) {
        auto parent_it = parts_.find(proc.parent_pid());
        if (parent_it != parts_.end()) {
            ClaimResult parent_claim =
                parent_it->second->claim(group, offset);
            if (parent_claim.found) {
                stats_.part_hits.inc();
                stats_.child_served_by_parent.inc();
                return {.ok = true,
                        .gfn = parent_claim.gfn,
                        .cycles = kernel_->costs().reservation_hit};
            }
        }
    }

    // Slow path: take an aligned 8-frame chunk and reserve the rest.
    std::optional<std::uint64_t> base =
        kernel_->buddy().allocate_split(reservation_order_);
    stats_.buddy_calls.inc();
    if (!base) {
        // The buddy has no contiguous chunk (fragmentation the paper
        // attributes to reclaimed reservations, §4.4): degrade to the
        // stock single-page behaviour rather than failing the fault.
        std::optional<std::uint64_t> single =
            kernel_->buddy().allocate_frame();
        stats_.buddy_calls.inc();
        stats_.fallback_singles.inc();
        if (!single)
            return {.ok = false};
        return {.ok = true,
                .gfn = *single,
                .cycles = kernel_->costs().buddy_call};
    }

    std::uint64_t gfn = part.create(group, *base, offset);
    stats_.reservations_created.inc();

    // Mark the chunk reserved; the kernel will re-tag the returned frame
    // as data when it installs the PTE.
    kernel_->memory().set_use(*base, group_pages_,
                              mem::FrameUse::Reserved, proc.pid());

    return {.ok = true,
            .gfn = gfn,
            .cycles = kernel_->costs().buddy_call +
                      kernel_->costs().reservation_insert};
}

vm::FreeDisposition
PtemagnetProvider::on_page_freed(vm::Process &proc, std::uint64_t gvpn,
                                 std::uint64_t gfn)
{
    const std::uint64_t group = group_of(gvpn);
    const unsigned offset = offset_of(gvpn);

    // The freeing process may be a child whose page lives in the parent's
    // reservation map; check its own map first, then the parent's.
    std::int32_t owners[2] = {proc.pid(), proc.parent_pid()};
    for (std::int32_t owner : owners) {
        if (owner < 0)
            continue;
        auto it = parts_.find(owner);
        if (it == parts_.end())
            continue;
        Part &part = *it->second;

        // Guard against stale groups: after a reclamation a *new*
        // reservation may cover this group while the freed page's frame
        // belongs to the old, already-released chunk.
        std::optional<ReservationView> view = part.find(group);
        if (!view || view->base_gfn + offset != gfn ||
            !(view->mask & (1u << offset))) {
            continue;
        }

        ReleaseResult released = part.release(group, offset);
        ptm_assert(released.found,
                   "reservation for group %llu vanished between find() "
                   "and release() (pid %d)",
                   static_cast<unsigned long long>(group), owner);
        if (released.deleted_empty) {
            // Last mapped page gone: the whole chunk returns to the buddy.
            kernel_->memory().set_use(released.base_gfn, group_pages_,
                                      mem::FrameUse::Free);
            kernel_->buddy().free_frames(released.base_gfn,
                                         group_pages_);
        } else {
            // The frame rejoins the reservation for future reuse.
            kernel_->memory().set_use(gfn, 1, mem::FrameUse::Reserved,
                                      owner);
        }
        return vm::FreeDisposition::KeptByProvider;
    }

    // No live reservation covers the page (entry deleted when the group
    // filled up, or PTEMagnet was bypassed): default kernel behaviour.
    return vm::FreeDisposition::ReturnToBuddy;
}

std::uint64_t
PtemagnetProvider::free_unmapped(const ReservationView &view)
{
    std::uint64_t freed = 0;
    for (unsigned i = 0; i < group_pages_; ++i) {
        if (view.mask & (1u << i))
            continue;
        kernel_->memory().set_use(view.base_gfn + i, 1,
                                  mem::FrameUse::Free);
        kernel_->buddy().free(view.base_gfn + i);
        ++freed;
    }
    return freed;
}

void
PtemagnetProvider::on_process_exit(vm::Process &proc)
{
    auto it = parts_.find(proc.pid());
    if (it == parts_.end())
        return;
    it->second->drain([this](const ReservationView &view) {
        free_unmapped(view);
    });
    parts_.erase(it);
}

void
PtemagnetProvider::on_fork(vm::Process &, vm::Process &)
{
    // The child is linked through Process::parent_pid(); nothing to copy —
    // reservations are never duplicated (§4.4).
}

std::uint64_t
PtemagnetProvider::reclaim(std::uint64_t target_frames)
{
    // The reclamation daemon (§4.3): release whole reservation maps,
    // application by application, until enough frames came back. Mapped
    // pages stay mapped; only the unused reserved frames are returned.
    std::uint64_t freed = 0;
    for (auto &[pid, part] : parts_) {
        if (freed >= target_frames)
            break;
        part->drain([this, &freed](const ReservationView &view) {
            freed += free_unmapped(view);
        });
    }
    stats_.frames_reclaimed.inc(freed);
    return freed;
}

std::uint64_t
PtemagnetProvider::total_unmapped_reserved() const
{
    std::uint64_t n = 0;
    for (const auto &[pid, part] : parts_)
        n += part->unmapped_reserved_pages();
    return n;
}

std::uint64_t
PtemagnetProvider::total_live_reservations() const
{
    std::uint64_t n = 0;
    for (const auto &[pid, part] : parts_)
        n += part->live_reservations();
    return n;
}

}  // namespace ptm::core
